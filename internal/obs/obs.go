// Package obs is the host-runtime observability layer: where package trace
// records the *simulated* Cray XMT cost of a kernel, obs records what the
// host actually did while executing it — wall-clock spans for every engine
// phase of every superstep, per-worker busy time folded from package par's
// chunk-level timing, per-superstep counters, and sampled runtime.MemStats.
// It exists to answer the questions the simulated profile cannot: where
// does host wall-clock time go as the frontier grows and shrinks, and why
// is w=8 not 8x faster than w=1.
//
// Producers emit events into a Sink; three sinks are provided:
//
//   - Report: an in-memory aggregator that renders a human-readable run
//     report (per-superstep phase table + worker-utilization summary — the
//     host-side analogue of the paper's Figures 1-2).
//   - JSONL: a line-delimited JSON event stream for ad-hoc tooling.
//   - Chrome: a Chrome trace-event file (load it in Perfetto or
//     chrome://tracing) with one track per host worker.
//
// A nil Sink disables observability at zero hot-path cost: producers guard
// every hook on a single pointer and allocate nothing when it is nil.
// Observability never changes results — spans and counters are derived
// from values the engine computes anyway, and the par.WorkerTimer only
// measures, so a run's Result and recorded XMT profile are bit-identical
// with or without a sink attached (asserted by core's determinism tests).
//
// Sink methods are invoked from the observed kernel's driving goroutine
// only — never from par workers — so sinks need no internal locking, but
// they must copy any slice they retain (Span.WorkerBusy is reused).
package obs

import "time"

// RunInfo opens one observed run (one BSP execution or one shared-memory
// kernel invocation).
type RunInfo struct {
	// Label names the run: "bsp" for engine runs, the kernel's phase-name
	// prefix ("cc", "bfs", ...) for recorder-derived kernel runs.
	Label string
	// Workers is the host worker count (par.Workers()) for the run.
	Workers int
	// Vertices and Edges describe the input graph; zero when unknown.
	Vertices, Edges int64
	// Lanes is the batched run's lane occupancy — how many of the
	// per-vertex mask's 64 bit lanes carry a query (core.LaneProgram);
	// zero for unbatched runs.
	Lanes int
}

// Span is one wall-clock phase of one superstep (or kernel iteration).
type Span struct {
	// Name is the phase name. The BSP engine emits "init", "compute",
	// "terminate", "deliver" and "worklist" (the last only under sparse
	// activation) for each superstep, and "checkpoint" under a policy;
	// recorder-derived kernel spans carry the trace phase name ("cc/iter",
	// "bfs/level", ...), cross-linking the span to the recorded profile.
	Name string
	// Step is the superstep / iteration index; -1 for run-level spans.
	Step int
	// Start is the span's start, relative to the run's start.
	Start time.Duration
	// Dur is the span's wall-clock duration.
	Dur time.Duration
	// WorkerBusy holds each worker's busy time within the span, folded
	// from par's chunk-level timing. Busy far below Dur on a parallel
	// phase means the workers were starved (or the phase ran its
	// sequential path). Nil when no per-worker timing was collected; only
	// valid during the Span call — sinks must copy to retain.
	WorkerBusy []time.Duration
	// Chunks is the number of timed chunks the span's parallel loops ran;
	// zero when no chunk timing was collected.
	Chunks int64
	// MaxChunk is the longest single timed chunk within the span. The
	// load-imbalance factor MaxChunk / (busy total / Chunks) — max over
	// mean chunk time — is what the engine's degree-weighted sweep
	// partition drives toward 1 on skewed graphs.
	MaxChunk time.Duration
	// Regions is the number of parallel regions (fork/joins) the span's
	// loops forked; a loop that ran inline — one worker, or at most one
	// chunk — is not one. Zero when no worker timing was collected.
	Regions int64
}

// StepStats are one superstep's counters, emitted once per superstep after
// its phases.
type StepStats struct {
	Step int
	// Active is the number of vertices that ran Compute.
	Active int64
	// Sent is the number of logical messages sent (before combining): one
	// per edge for a broadcast, the paper-fidelity count the cost model
	// charges.
	Sent int64
	// SentPhysical is the number of physically materialized outgoing
	// records: one message per unicast Send plus one record per broadcast.
	// Equal to Sent when every send was a unicast; O(frontier) instead of
	// O(edges) on broadcast-heavy supersteps.
	SentPhysical int64
	// Delivered is the number of messages delivered into inboxes (after
	// combining); zero on the terminal superstep, which delivers nothing.
	Delivered int64
	// Received is the number of messages consumed from inboxes.
	Received int64
	// ScratchBytes approximates the engine's reusable scratch footprint
	// (send buffers, inbox CSR, delivery counters, worklists).
	ScratchBytes int64
	// Direction is the superstep's push/pull decision ("push" or "pull")
	// when the engine's direction layer is active; empty otherwise.
	Direction string
	// Delivery names what the boundary after this superstep did with its
	// traffic (core's choosePath): "lookaside" (stamped only the receivers,
	// O(traffic)), "csr" (sequential CSR inbox build), "csr-par" (the same,
	// forked), "pull" (stamped the broadcasters and built nothing — the
	// NEXT superstep's compute span contains the gather); "pull+saturated"
	// when every vertex with a neighbor broadcast into a combining pull,
	// which then knows its receivers without looking; "none" on the
	// terminal superstep, which delivers nothing. A host-speed decision:
	// unlike Direction it may differ between worker counts.
	Delivery string
	// FrontierEdges is the broadcast-incident-edge count the direction
	// heuristic compared (logical messages minus unicasts); UnvisitedEdges
	// is the incident-edge count of not-yet-visited vertices. Both zero
	// when Direction is empty.
	FrontierEdges  int64
	UnvisitedEdges int64
	// Retries is the number of times the superstep was re-executed after a
	// trapped fault (core.Config.MaxRetries); zero on a clean superstep or
	// when retry is disabled. Stalled reports that the superstep outlived
	// the watchdog deadline (core.Config.StepTimeout) — it completed, but
	// the run will end with a TimeoutError at this boundary unless the
	// superstep was terminal.
	Retries int64
	Stalled bool
	// Lanes is the number of bit lanes active in the superstep's outgoing
	// traffic (popcount of the OR of every payload) for batched
	// multi-source runs; zero for unbatched runs and for supersteps that
	// sent nothing. A pure function of the logical traffic — identical at
	// any worker count and under either broadcast treatment.
	Lanes int64
}

// MemSample is a sampled runtime.MemStats snapshot.
type MemSample struct {
	// Step is the superstep at which the sample was taken.
	Step int
	// At is the sample time relative to the run's start.
	At time.Duration
	// HeapAlloc and HeapSys are bytes of allocated and OS-reserved heap.
	HeapAlloc, HeapSys uint64
	// NumGC is the cumulative collection count.
	NumGC uint32
	// PauseTotal is the cumulative stop-the-world pause time.
	PauseTotal time.Duration
	// VmHWM is the process peak resident set size in bytes, read from
	// /proc/self/status. Zero where the kernel does not expose it — the
	// report omits the figure rather than print a lie.
	VmHWM uint64
}

// Sink receives one run's observability events: RunStart, then any mix of
// Span / Step / Mem, then RunEnd. Sinks may observe several runs in
// sequence (one per kernel, or one per BSP execution inside a composite
// algorithm like betweenness).
type Sink interface {
	RunStart(RunInfo)
	Span(Span)
	Step(StepStats)
	Mem(MemSample)
	RunEnd(wall time.Duration)
}

// SinkProvider is implemented by recorder observers that carry a Sink; the
// BSP engine uses it to discover the sink attached to its trace.Recorder
// when Config.Obs is nil, so CLIs can attach observability once without
// threading it through every algorithm wrapper.
type SinkProvider interface {
	ObsSink() Sink
}
