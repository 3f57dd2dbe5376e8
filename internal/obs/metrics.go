package obs

import (
	"strconv"
	"time"

	"graphxmt/internal/metrics"
)

// Metrics feeds a metrics.Registry from the observability event stream —
// the live, scrapeable counterpart of the post-hoc sinks. Where Report
// renders a table after the run and JSONL replays it offline, Metrics keeps
// atomic counters, gauges, and log-scale histograms current *during* the
// run, so an HTTP scrape (obs/live) or an in-process reader sees per-step
// state the moment the engine emits it.
//
// Naming conventions (see docs/OBSERVABILITY.md):
//
//   - everything is prefixed graphxmt_;
//   - counters end in _total and are monotone across runs (a process that
//     observes several runs keeps accumulating — reconcile per run with
//     Result, or scrape deltas);
//   - durations are microseconds, suffix _us; histograms use log2 buckets;
//   - gauges hold the most recent superstep's view (frontier/unvisited
//     edges, scratch bytes, busy fraction in permille).
//
// Like every sink, Metrics is fed from the observed run's driving goroutine
// only; the instruments themselves are atomics, so concurrent HTTP scrapes
// need no further locking. Logical counters reconcile exactly with the
// run's Result: after RunEnd, graphxmt_messages_logical_total equals the
// sum of Result.MessagesPerStep across observed runs (asserted by the
// determinism tests and the obs-live CI job).
type Metrics struct {
	reg *metrics.Registry

	runsStarted *metrics.Counter
	runsDone    *metrics.Counter
	steps       *metrics.Counter
	active      *metrics.Counter
	logical     *metrics.Counter
	physical    *metrics.Counter
	delivered   *metrics.Counter
	received    *metrics.Counter
	retries     *metrics.Counter
	stalls      *metrics.Counter
	fallbacks   *metrics.Counter
	batchRuns   *metrics.Counter
	dirSteps    map[string]*metrics.Counter
	delivery    map[string]*metrics.Counter // by StepStats.Delivery, registered on first sight

	workers   *metrics.Gauge
	vertices  *metrics.Gauge
	edges     *metrics.Gauge
	frontier  *metrics.Gauge
	unvisited *metrics.Gauge
	scratch   *metrics.Gauge
	busyPerm  *metrics.Gauge
	heapAlloc *metrics.Gauge
	heapSys   *metrics.Gauge
	gcCount   *metrics.Gauge
	lanes     *metrics.Gauge
	amortized *metrics.Gauge

	stepWall *metrics.Histogram
	runWall  *metrics.Histogram
	ckptWall *metrics.Histogram
	phase    map[string]*metrics.Histogram
	busyUs   []*metrics.Counter // per worker index

	// Per-run batch accumulation: lane occupancy of the current run and its
	// logical sends so far, so RunEnd can publish the amortized per-query
	// edge cost (sends / lanes) without re-reading the event stream.
	curLanes int
	curSent  int64

	// Per-superstep accumulation between Span and Step events: a
	// superstep's wall is the sum of its engine phase spans
	// (compute/terminate/deliver/worklist — the checkpoint span is charged
	// to its own histogram), and its busy time is the per-worker busy total
	// across those spans.
	curWall time.Duration
	curBusy time.Duration
	curWkrs int
}

// NewMetrics returns a Metrics sink feeding reg (nil creates a fresh
// registry, available via Registry).
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Metrics{
		reg:         reg,
		runsStarted: reg.Counter("graphxmt_runs_started_total", "observed runs started"),
		runsDone:    reg.Counter("graphxmt_runs_completed_total", "observed runs completed"),
		steps:       reg.Counter("graphxmt_supersteps_total", "supersteps executed"),
		active:      reg.Counter("graphxmt_active_vertices_total", "vertices that ran Compute"),
		logical:     reg.Counter("graphxmt_messages_logical_total", "logical messages sent (one per edge for broadcasts; reconciles with Result.MessagesPerStep)"),
		physical:    reg.Counter("graphxmt_messages_physical_total", "physically materialized outgoing records"),
		delivered:   reg.Counter("graphxmt_messages_delivered_total", "messages delivered into inboxes (after combining)"),
		received:    reg.Counter("graphxmt_messages_received_total", "messages consumed from inboxes"),
		retries:     reg.Counter("graphxmt_retries_total", "superstep re-executions after trapped faults (deterministic retry)"),
		stalls:      reg.Counter("graphxmt_watchdog_stalls_total", "supersteps that outlived the watchdog deadline"),
		fallbacks:   reg.Counter("graphxmt_ckpt_fallback_total", "damaged checkpoints skipped by the resume fallback chain"),
		batchRuns:   reg.Counter("graphxmt_batch_runs_total", "batched multi-source runs observed (lane occupancy > 0)"),
		dirSteps:    map[string]*metrics.Counter{},
		delivery:    map[string]*metrics.Counter{},
		workers:     reg.Gauge("graphxmt_run_workers", "host worker count of the current run"),
		vertices:    reg.Gauge("graphxmt_graph_vertices", "vertex count of the current run's graph"),
		edges:       reg.Gauge("graphxmt_graph_edges", "edge count of the current run's graph"),
		frontier:    reg.Gauge("graphxmt_frontier_edges", "broadcast-incident edge count the direction heuristic compared (last superstep)"),
		unvisited:   reg.Gauge("graphxmt_unvisited_edges", "incident-edge count of not-yet-visited vertices (last superstep)"),
		scratch:     reg.Gauge("graphxmt_scratch_bytes", "engine reusable scratch footprint (last superstep)"),
		busyPerm:    reg.Gauge("graphxmt_step_busy_permille", "last superstep's worker busy time over wall*workers, in permille"),
		heapAlloc:   reg.Gauge("graphxmt_heap_alloc_bytes", "heap bytes allocated (last sample)"),
		heapSys:     reg.Gauge("graphxmt_heap_sys_bytes", "heap bytes reserved from the OS (last sample)"),
		gcCount:     reg.Gauge("graphxmt_gc_count", "cumulative GC collections (last sample)"),
		lanes:       reg.Gauge("graphxmt_batch_lanes", "lane occupancy of the current run (0 for unbatched runs)"),
		amortized:   reg.Gauge("graphxmt_batch_amortized_edges_per_query", "logical sends divided by lane occupancy for the last completed batched run"),
		stepWall:    reg.Histogram("graphxmt_superstep_wall_us", "superstep wall time (sum of engine phase spans), microseconds", metrics.DurationBounds),
		runWall:     reg.Histogram("graphxmt_run_wall_us", "whole-run wall time, microseconds", metrics.DurationBounds),
		ckptWall:    reg.Histogram("graphxmt_checkpoint_write_us", "checkpoint snapshot+write latency, microseconds", metrics.DurationBounds),
		phase:       map[string]*metrics.Histogram{},
	}
	for _, d := range []string{"push", "pull"} {
		m.dirSteps[d] = reg.Counter("graphxmt_direction_steps_total",
			"supersteps delivered in each direction", metrics.Label{Key: "direction", Value: d})
	}
	return m
}

// Registry returns the registry this sink feeds.
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// RunStart implements Sink.
func (m *Metrics) RunStart(info RunInfo) {
	m.runsStarted.Inc()
	m.workers.Set(int64(info.Workers))
	m.vertices.Set(info.Vertices)
	m.edges.Set(info.Edges)
	m.lanes.Set(int64(info.Lanes))
	if info.Lanes > 0 {
		m.batchRuns.Inc()
	}
	m.curLanes, m.curSent = info.Lanes, 0
	m.curWall, m.curBusy, m.curWkrs = 0, 0, info.Workers
	for len(m.busyUs) < info.Workers {
		m.busyUs = append(m.busyUs, m.reg.Counter("graphxmt_worker_busy_us_total",
			"per-worker busy time folded from chunk timing, microseconds",
			metrics.Label{Key: "worker", Value: strconv.Itoa(len(m.busyUs))}))
	}
}

// Span implements Sink.
func (m *Metrics) Span(s Span) {
	h, ok := m.phase[s.Name]
	if !ok {
		h = m.reg.Histogram("graphxmt_phase_us", "engine/kernel phase duration, microseconds",
			metrics.DurationBounds, metrics.Label{Key: "phase", Value: s.Name})
		m.phase[s.Name] = h
	}
	h.Observe(s.Dur.Microseconds())
	var busy time.Duration
	for w, b := range s.WorkerBusy {
		busy += b
		if w < len(m.busyUs) {
			m.busyUs[w].Add(b.Microseconds())
		}
	}
	if s.Name == obsCheckpointPhase {
		m.ckptWall.Observe(s.Dur.Microseconds())
		return
	}
	if s.Step >= 0 {
		m.curWall += s.Dur
		m.curBusy += busy
	}
}

// obsCheckpointPhase mirrors core's checkpoint span name; the engine owns
// the name, the sink only special-cases it (checkpoint latency has its own
// histogram and is excluded from superstep wall).
const obsCheckpointPhase = "checkpoint"

// Step implements Sink.
func (m *Metrics) Step(st StepStats) {
	m.steps.Inc()
	m.active.Add(st.Active)
	m.logical.Add(st.Sent)
	m.curSent += st.Sent
	m.physical.Add(st.SentPhysical)
	m.delivered.Add(st.Delivered)
	m.received.Add(st.Received)
	m.retries.Add(st.Retries)
	if st.Stalled {
		m.stalls.Inc()
	}
	m.scratch.Set(st.ScratchBytes)
	if st.Direction != "" {
		if c, ok := m.dirSteps[st.Direction]; ok {
			c.Inc()
		}
		m.frontier.Set(st.FrontierEdges)
		m.unvisited.Set(st.UnvisitedEdges)
	}
	if st.Delivery != "" {
		c, ok := m.delivery[st.Delivery]
		if !ok {
			c = m.reg.Counter("graphxmt_delivery_total", "superstep boundaries by delivery path taken",
				metrics.Label{Key: "path", Value: st.Delivery})
			m.delivery[st.Delivery] = c
		}
		c.Inc()
	}
	m.stepWall.Observe(m.curWall.Microseconds())
	if m.curWall > 0 && m.curWkrs > 0 {
		m.busyPerm.Set(int64(m.curBusy) * 1000 / (int64(m.curWall) * int64(m.curWkrs)))
	}
	m.curWall, m.curBusy = 0, 0
}

// NoteFallback implements FallbackNoter: each damaged checkpoint the
// resume fallback chain skips bumps graphxmt_ckpt_fallback_total.
func (m *Metrics) NoteFallback(path string, cause error) {
	m.fallbacks.Inc()
}

// Mem implements Sink.
func (m *Metrics) Mem(s MemSample) {
	m.heapAlloc.Set(int64(s.HeapAlloc))
	m.heapSys.Set(int64(s.HeapSys))
	m.gcCount.Set(int64(s.NumGC))
}

// RunEnd implements Sink.
func (m *Metrics) RunEnd(wall time.Duration) {
	m.runsDone.Inc()
	m.runWall.Observe(wall.Microseconds())
	if m.curLanes > 0 {
		m.amortized.Set(m.curSent / int64(m.curLanes))
	}
}
