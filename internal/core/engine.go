// Package core implements the paper's primary contribution: a bulk
// synchronous parallel (BSP), vertex-centric graph computation engine in
// the style of Google's Pregel, built over the same read-only CSR graph the
// shared-memory GraphCT kernels use — exactly the construction the paper
// evaluates on the Cray XMT.
//
// A computation is a sequence of supersteps. In each superstep every active
// vertex (1) receives the messages sent to it in the previous superstep,
// (2) updates its local state, and (3) sends messages that will be received
// in the next superstep. Messages never arrive within a superstep, which
// makes the model deadlock-free and forces algorithms to work on stale
// state — the algorithmic property behind every performance difference the
// paper measures. A vertex votes to halt when it has nothing further to do
// and is reactivated only by incoming messages; the computation terminates
// when no vertex is active and no messages are in flight.
//
// The engine executes for real (its outputs are checked against the
// GraphCT kernels and sequential references in tests) and records a work
// profile for the machine model, charging the costs of the paper's XMT
// implementation: a full vertex scan per superstep, per-message queue
// writes, and chunked fetch-and-add allocation from a single global buffer
// cursor (trace.HotMsgCounter).
//
// # Host parallelism
//
// Run executes supersteps on all host cores via package par — the compute
// sweep over worker-independent, degree-weighted chunks (so a skewed graph's
// hub vertices don't unbalance the sweep; see sweepBoundaries in
// parallel.go) with private per-chunk contexts merged in chunk index
// order, delivery as a stable parallel counting sort, and the
// sparse-activation worklist as a stamp-ordered dense sweep (see
// parallel.go). The package invariant is that the host worker count
// affects only wall-clock time: Result and the recorded trace profile are
// bit-identical whether par runs on 1 or N cores (asserted by the
// determinism tests). For that to hold, Program implementations must
// confine their side effects per vertex: Compute may read shared
// program-owned data but may only write state indexed by its own
// VertexContext.ID (as every program in bspalg does), and InitialState
// must be safe to call concurrently for distinct vertices.
package core

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// Message is one in-flight message: a destination vertex and an int64
// payload. The paper's three algorithms all exchange vertex IDs or
// distances, so payloads are plain int64s.
type Message struct {
	Dest  int64
	Value int64
}

// Program is a vertex program. Compute is called once per active vertex
// per superstep with the vertex's incoming messages. Compute runs
// concurrently for distinct vertices on the host (see the package comment
// for the confinement rules that keeps results deterministic).
type Program interface {
	// InitialState returns vertex v's state before superstep 0.
	InitialState(g *graph.Graph, v int64) int64
	// Compute runs one vertex for one superstep.
	Compute(v *VertexContext)
}

// Config configures a BSP run.
type Config struct {
	// Graph is the input graph (required).
	Graph *graph.Graph
	// Program is the vertex program (required).
	Program Program
	// MaxSupersteps bounds the run — the runaway guard for vertex programs
	// that never converge. 0 selects 1000; negative values disable the
	// bound. Exceeding it returns *BudgetError (carrying the last
	// superstep's counters) rather than silently stopping or hanging.
	MaxSupersteps int
	// Combiner, when non-nil, merges messages addressed to the same vertex
	// at the superstep boundary (Pregel's combiner optimization). It must
	// be commutative and associative. Or, Sum and Min are recognised by
	// identity and folded inline on pull supersteps (resolveFold).
	Combiner func(a, b int64) int64
	// Recorder receives the work profile; nil disables recording.
	Recorder *trace.Recorder
	// Costs is the engine cost schedule; the zero value selects
	// DefaultCosts.
	Costs *CostSchedule
	// MaxMessagesPerSuperstep bounds send-buffer growth; 0 selects 1<<28.
	// Algorithms that exceed it (BSP triangle counting at scale) must use
	// a streaming evaluator instead; the engine returns an error.
	MaxMessagesPerSuperstep int64
	// Obs receives host-runtime observability events: wall-clock spans
	// for each engine phase of each superstep, per-worker busy time,
	// per-superstep counters, and sampled memory statistics (package
	// obs). nil disables observability at zero hot-path cost; in that
	// case Run also accepts a sink attached to Recorder via an
	// obs.SinkProvider observer, so CLIs can wire observability through
	// the recorder they already pass around. Observability never affects
	// Result or the recorded work profile.
	Obs obs.Sink
	// SparseActivation switches the runtime from the paper's full
	// per-superstep vertex scan to an active-worklist schedule: only
	// vertices that received messages or stayed awake are inspected. The
	// computation's results are identical; only the charged (and host)
	// scan work changes. This is the ablation for the paper's observation
	// that "the overhead of the early and late iterations is two orders of
	// magnitude larger" in BSP — with sparse activation that overhead
	// disappears (see experiments.AblationActivation).
	SparseActivation bool
	// Checkpoint, when non-nil, enables superstep-boundary checkpointing
	// under the given policy (package ckpt; see checkpoint.go and
	// docs/ROBUSTNESS.md). nil costs one pointer check per superstep.
	Checkpoint *ckpt.Policy
	// Resume, when non-empty, restores the run from the checkpoint at this
	// path instead of starting at superstep 0. The checkpoint's fingerprint
	// must match this config (same graph, program, label, and engine
	// options) or Run returns *ckpt.MismatchError.
	Resume string
	// Stop, when non-nil, is polled at every superstep boundary: once it
	// is closed, the engine finishes the current superstep, writes a
	// checkpoint (when a policy is configured), and returns
	// *InterruptedError. This is how cmd/bspgraph turns SIGINT/SIGTERM
	// into a resumable exit.
	Stop <-chan struct{}
	// Direction selects push/pull execution for broadcast-heavy supersteps
	// (direction.go). The zero value (DirAuto) enables the adaptive
	// heuristic for pull-capable programs and is the legacy engine for all
	// others; DirPush forces push scatter (the A/B control); DirPull
	// requires a pull-capable program or Run returns *DirectionError. The
	// mode is recorded in checkpoint fingerprints, so a resumed run must
	// use the mode it started with.
	Direction DirectionMode
	// MaxRetries bounds deterministic superstep retry (supervise.go): a
	// vertex-program panic rolls the engine back to the last superstep
	// boundary's in-memory snapshot and re-executes, up to MaxRetries
	// times per superstep, before giving up with *RetryExhaustedError.
	// Because re-execution consumes exactly the boundary state the failed
	// attempt did, a run that survives a transient fault is bit-identical
	// (Result and profile) to a fault-free run at any worker count. 0 or
	// negative disables retry. The bound is recorded in checkpoint
	// fingerprints, so a resumed run must keep the bound it started with.
	MaxRetries int
	// StepTimeout, when positive, arms a watchdog over each superstep: a
	// superstep that outlives the deadline triggers an emergency
	// checkpoint (when a policy with a directory is configured) plus a
	// flight-recorder dump from the watchdog goroutine, and the run
	// returns *TimeoutError (Stalled=true) at the next boundary it
	// reaches. 0 disables the watchdog at zero hot-path cost.
	StepTimeout time.Duration
	// RunTimeout, when positive, bounds the whole run's wall-clock time.
	// The deadline is checked at superstep boundaries — the engine
	// finishes the superstep in flight, writes a checkpoint (when a
	// policy is configured), and returns *TimeoutError (Stalled=false) —
	// so it composes with Stop's finish-superstep-then-exit contract.
	// 0 disables the bound.
	RunTimeout time.Duration
	// ResumeLatest, when true, resumes from the newest *valid* checkpoint
	// in the policy's directory (ckpt.ResumeLatestValid): corrupt,
	// truncated, and version-incompatible snapshots are skipped (each
	// skip reported through the obs sink) and the chain falls back to the
	// next older one. An empty directory starts fresh; a directory with
	// only damaged checkpoints is an error. Requires a Checkpoint policy
	// with a directory. Mutually exclusive with Resume.
	ResumeLatest bool

	// expandBroadcasts reverts SendToNeighbors to eager per-edge expansion
	// into the send log: the per-edge oracle the record path is tested
	// against (set only through export_test.go). Both treatments give the
	// same Result, profile and logical counters, so it is not fingerprinted.
	expandBroadcasts bool
}

// Result is the outcome of a BSP run.
type Result struct {
	// States holds every vertex's final state.
	States []int64
	// Supersteps is the number of supersteps executed.
	Supersteps int
	// ActivePerStep holds the number of vertices that ran Compute in each
	// superstep.
	ActivePerStep []int64
	// MessagesPerStep holds the number of messages sent in each superstep
	// (before combining).
	MessagesPerStep []int64
	// DeliveredPerStep holds the number of messages delivered into
	// inboxes for each superstep (after combining); index s is what
	// superstep s consumed.
	DeliveredPerStep []int64
	// Aggregates holds the final value of every named aggregator.
	Aggregates map[string]int64
	// DirectionPerStep records each superstep's push/pull decision (one
	// entry per superstep, DirPush or DirPull) when the direction layer is
	// active — the program is pull-capable or a non-auto Direction was
	// requested; nil otherwise. The sequence is a pure function of logical
	// counters, identical at any worker count, and is persisted in
	// checkpoints so resume replays it exactly.
	DirectionPerStep []DirectionMode
	// RetriesPerStep records, when Config.MaxRetries is positive, how many
	// times each superstep was re-executed after a trapped fault (one
	// entry per superstep, normally 0); nil when retry is disabled. The
	// counts are persisted in checkpoints so a resumed run's totals match
	// an uninterrupted one's.
	RetriesPerStep []int64
}

// Run executes the BSP computation to termination.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if cfg.Program == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	maxSteps := cfg.MaxSupersteps
	if maxSteps == 0 {
		maxSteps = 1000
	} else if maxSteps < 0 {
		maxSteps = math.MaxInt // unbounded
	}
	maxMsgs := cfg.MaxMessagesPerSuperstep
	if maxMsgs == 0 {
		maxMsgs = 1 << 28
	}
	costs := DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}

	g := cfg.Graph
	n := g.NumVertices()
	res := &Result{
		States:     make([]int64, n),
		Aggregates: map[string]int64{},
	}
	// The two buffers sized by message volume come from, and go back to, a
	// pool shared with the process's other runs. Taken before anything forks:
	// a sync.Pool keeps a lone object in a per-P slot no other P can steal
	// from, and the first fork/join may resume this goroutine on another P
	// than the one the previous run's Put ran on.
	flat := flatPool.Get().(*flatBufs)
	scratch := &runScratch{groupVal: flat.groupVal, gather: gatherPool{size: 2 * g.MaxDegree()}}
	// ib is what each boundary's delivery builds and the next sweep reads.
	ib := &inbox{off: make([]int64, n+1), val: flat.inboxVal, fold: resolveFold(cfg.Combiner), combine: cfg.Combiner}
	defer func() {
		flat.inboxVal, flat.groupVal = ib.val, scratch.groupVal
		flatPool.Put(flat)
	}()
	// laneSrc/progAux are the program's batching capability surfaces
	// (lanes.go): the lane assignment of a batched multi-source program
	// (obs reporting; the fingerprint pin happens in runFingerprint) and
	// its auxiliary state slice (snapshot/restore/rollback below). Both
	// nil for ordinary programs.
	laneSrc := laneSourcesOf(cfg.Program)
	progAux := auxOf(cfg.Program)
	// sup is the run-supervision state (retry, watchdog, run deadline);
	// nil (no MaxRetries, no timeouts) costs one pointer check per
	// superstep (supervise.go).
	sup := startSup(&cfg)
	// ck is the checkpoint/interrupt state; nil (no policy, no stop
	// channel, no resume, no supervisor) costs one pointer check per
	// superstep boundary.
	ck := startCkpt(&cfg, g, maxSteps, maxMsgs, costs, sup)
	var resumeSnap *ckpt.Snapshot
	switch {
	case cfg.Resume != "":
		s, err := ck.loadResume(cfg.Resume)
		if err != nil {
			return nil, err
		}
		resumeSnap = s
	case cfg.ResumeLatest:
		// Fallback chain: newest valid checkpoint in the policy's
		// directory, or a fresh start when the directory has none (and no
		// damaged ones either).
		s, err := ck.loadLatest(&cfg)
		if err != nil {
			return nil, err
		}
		resumeSnap = s
	}
	if sup != nil && sup.maxRetries > 0 && resumeSnap != nil {
		sup.retries = append(sup.retries, resumeSnap.RetriesPerStep...)
	}
	// ds is the direction-decision state; nil (program not pull-capable,
	// mode auto) is the legacy engine and costs one pointer check per
	// superstep.
	ds, err := startDir(&cfg, g)
	if err != nil {
		return nil, err
	}
	// o is the observability state; nil (no sink) costs one pointer check
	// per hook below. tObs is only written/read when o != nil.
	o := startObs(&cfg, g)
	var tObs time.Time
	if o != nil {
		defer o.finish()
		tObs = time.Now()
	}
	if sup != nil {
		sup.startWatchdog(o, cfg.Checkpoint)
		defer sup.stop()
	}
	halted := make([]bool, n)
	// live tracks the number of non-halted vertices incrementally (via
	// per-chunk halt-transition deltas), replacing the sequential engine's
	// full rescan of the halt flags on every message-free superstep.
	live := n
	if resumeSnap == nil {
		// initTrap collects vertex-program panics from the InitialState
		// sweep; the lowest panicking vertex wins, which is deterministic
		// even though ForChunked's boundaries track the worker count (every
		// vertex below the lowest panic runs cleanly under any chunking).
		var initTrap struct {
			sync.Mutex
			trapped bool
			vertex  int64
			val     any
			stack   []byte
		}
		par.ForChunked(int(n), func(lo, hi int) {
			v := int64(lo)
			defer func() {
				if r := recover(); r != nil {
					stack := debug.Stack()
					initTrap.Lock()
					if !initTrap.trapped || v < initTrap.vertex {
						initTrap.trapped, initTrap.vertex, initTrap.val, initTrap.stack = true, v, r, stack
					}
					initTrap.Unlock()
				}
			}()
			for ; v < int64(hi); v++ {
				res.States[v] = cfg.Program.InitialState(g, v)
			}
		})
		if o != nil {
			o.phase(obsPhaseInit, -1, tObs)
		}
		if initTrap.trapped {
			return nil, &ProgramError{
				Vertex:    initTrap.vertex,
				Superstep: -1,
				Phase:     "init",
				Recovered: initTrap.val,
				Stack:     initTrap.stack,
			}
		}
	}

	// tr is the superstep's outgoing traffic: the unicast log and the
	// broadcast records (one per SendToNeighbors call, not per edge).
	tr := &traffic{g: g, bufs: &scratch.gather}

	// Sparse-activation worklist: the vertices worth inspecting this
	// superstep (message receivers plus non-halted vertices). stamp
	// deduplicates insertions per superstep.
	var candidates []int64
	var stamp []int64
	if cfg.SparseActivation {
		candidates = make([]int64, n)
		par.Iota(candidates)
		stamp = make([]int64, n)
		par.FillInt64(stamp, -1)
	}

	// master owns the run-persistent engine state: vertex states and the
	// run-level aggregators the per-chunk partials fold into.
	master := &engineState{
		graph:  g,
		costs:  costs,
		states: res.States,
		expand: cfg.expandBroadcasts,
		bufs:   &scratch.gather,
	}
	// With no recorder every superstep charges one throwaway phase, not a
	// fresh pair.
	startPhase := cfg.Recorder.StartPhase
	if cfg.Recorder == nil {
		discard := new(trace.Phase)
		startPhase = func(string, int) *trace.Phase { return discard }
	}

	if resumeSnap == nil && sup != nil && sup.maxRetries > 0 {
		// Capture the post-init boundary (Step = -1, in-memory only; never
		// written to disk) so a fault in superstep 0 has a snapshot to
		// roll back to.
		ck.record(-1, live, res, halted, tr, master, ds, cfg.Recorder)
	}

	// stepDone completes a superstep's record with what is only known once the
	// superstep is over — which delivery ran, the scratch footprint after it,
	// a stall latched meanwhile, the lanes in flight — and emits it.
	stepDone := func(st obs.StepStats, numChunks int, took path) {
		st.Delivery = took.String()
		st.ScratchBytes = scratch.scratchBytes(numChunks, tr, ib, candidates, stamp)
		if sup != nil {
			st.Stalled = sup.stalledAt(st.Step)
		}
		if len(laneSrc) > 0 {
			st.Lanes = laneCount(tr)
		}
		o.step(st)
	}

	startStep := 0
	if resumeSnap != nil {
		// Restore the boundary after superstep resumeSnap.Step, then redo
		// the boundary's engine-local work: re-deliver the in-flight
		// messages into inboxes and (under sparse activation) rebuild the
		// worklist. Neither is re-charged — the restored profile already
		// contains the original charges — and both go through the same
		// code the original boundary used, so every downstream quantity is
		// bit-identical to the uninterrupted run's.
		live = restore(resumeSnap, res, halted, master, ds, cfg.Recorder)
		if len(progAux) > 0 {
			// Program-owned aux state. A checkpoint taken under a different
			// batch shape cannot resume: the levels recorded before the
			// boundary are not the program's, and silently restarting them
			// would corrupt every per-source distance.
			if len(resumeSnap.Aux) != len(progAux) {
				return nil, fmt.Errorf("core: checkpoint carries %d aux words, program expects %d (it was taken under a different configuration)", len(resumeSnap.Aux), len(progAux))
			}
			copy(progAux, resumeSnap.Aux)
		}
		startStep = int(resumeSnap.Step) + 1
		for i, dest := range resumeSnap.MsgDest {
			tr.sends.add(dest, resumeSnap.MsgVal[i])
		}
		tr.sends.seal()
		tr.bcasts = make([]bcastRec, len(resumeSnap.BcastSrc))
		tr.logical = tr.sends.sealed
		for i := range tr.bcasts {
			tr.bcasts[i] = bcastRec{src: resumeSnap.BcastSrc[i], val: resumeSnap.BcastVal[i], seq: resumeSnap.BcastSeq[i]}
			tr.logical += g.Degree(tr.bcasts[i].src)
		}
		// Re-deliver under the decision the original boundary recorded, so
		// the resumed inbox is built by the same path (DirAuto when the
		// direction layer is inactive — the legacy delivery heuristics).
		resumeDir := DirAuto
		if k := len(res.DirectionPerStep); ds != nil && k > 0 {
			resumeDir = res.DirectionPerStep[k-1]
		}
		delivered, _ := scratch.deliver(tr, ib, cfg.SparseActivation, resumeSnap.Step, resumeDir)
		if cfg.SparseActivation {
			// At any boundary the wake set equals the non-halted set (every
			// non-halted vertex re-ran this superstep and stayed awake), so
			// the worklist rebuild sees exactly what the original run's did.
			wake := make([]int64, 0, live)
			for v := int64(0); v < n; v++ {
				if !halted[v] {
					wake = append(wake, v)
				}
			}
			candidates = scratch.nextWorklist(candidates, int(resumeSnap.Step), wake, delivered, tr, stamp, ib)
		}
	}

	for step := startStep; ; step++ {
		if step >= maxSteps {
			be := &BudgetError{MaxSupersteps: maxSteps, Live: live}
			if k := len(res.ActivePerStep); k > 0 {
				be.LastActive = res.ActivePerStep[k-1]
				be.LastSent = res.MessagesPerStep[k-1]
			}
			if k := len(res.DeliveredPerStep); k > 0 {
				be.LastDelivered = res.DeliveredPerStep[k-1]
			}
			return nil, be
		}
		// The runtime decides which vertices run. The paper's XMT-C
		// implementation scans every vertex's queue head and halt flag — a
		// full parallel sweep over the vertex set — recorded as its own
		// region so its (abundant) parallelism is not conflated with the
		// compute loop's. Under SparseActivation only the worklist is
		// inspected.
		if sup != nil {
			sup.beginStep(step)
		}
		// The attempt loop: one iteration per execution of this superstep's
		// scan + compute sweep. Without a supervisor a trapped sweep exits
		// on the first iteration exactly as before; with retry enabled a
		// trapped attempt rolls back to the boundary snapshot and
		// re-executes (supervise.go). Everything below the loop consumes
		// only the successful attempt's chunk state.
		// The shadow keeps the parallel sweep closure capturing a
		// never-reassigned copy by value; capturing the loop variable
		// itself heap-allocates a cell every superstep.
		step := step
		var ph *trace.Phase
		var numChunks int
		var retried int64
		for {
			// The last boundary is done with its traffic (and a trapped
			// attempt's is void): the blocks go back to the pool.
			tr.sends.release()
			scanCount := n
			if cfg.SparseActivation {
				scanCount = int64(len(candidates))
			}
			scan := startPhase("bsp/scan", step)
			scan.AddTasks(scanCount, 0, costs.ScanLoadsPerVertex*scanCount, 0)
			scan.ObserveTask(costs.ScanLoadsPerVertex)

			ph = startPhase("bsp/superstep", step)

			// Compute sweep: worker-independent chunks, each with a private
			// context, merged in chunk index order below. Chunk boundaries are
			// a pure function of the graph and the active set (see
			// sweepBoundaries) — never of the worker count — so results and
			// profiles are identical at any host configuration.
			bounds := scratch.sweepBoundaries(g.Offsets(), candidates, cfg.SparseActivation)
			numChunks = len(bounds) - 1
			var visited []bool
			if ds != nil {
				visited = ds.visited
			}
			scratch.ensureChunks(numChunks, master, visited)
			sparse := cfg.SparseActivation
			prog := cfg.Program
			if o != nil {
				tObs = time.Now()
			}
			// What the sweep is known to cost: the items it scans, plus an
			// adjacency walk for every vertex awake and every message waiting.
			known := live
			if k := len(res.DeliveredPerStep); k > 0 {
				known += res.DeliveredPerStep[k-1]
			}
			known = scanCount + known*(1+g.Offsets()[n]/max(n, 1))
			if par.Workers() == 1 || known < sweepSerialMax {
				// Serial fast path: chunks run in index order anyway, so thread
				// one shared log through them, tail block and all — appending in
				// chunk order is the splice the parallel path performs
				// explicitly, and a near-empty superstep touches one block.
				// Counter and aggregator partials stay per-chunk so their merge
				// fold structure (hence the result) is identical to the parallel
				// path's.
				// The shared log makes every broadcast record's seq global
				// already, so no offset fix-up is needed on this path.
				bb := tr.bcasts[:0]
				for c := 0; c < numChunks; c++ {
					lo, hi := bounds[c], bounds[c+1]
					cs := scratch.chunks[c]
					cs.reset(step, master.prevAggregates)
					cs.eng.log = tr.sends
					cs.eng.bcastBuf = bb
					cs.runRange(prog, lo, hi, step, ib, halted, sparse, candidates)
					tr.sends = cs.eng.log
					bb = cs.eng.bcastBuf
					cs.eng.log = msgLog{}
					cs.eng.bcastBuf = nil
					if cs.trap != nil {
						// A trapped chunk is the lowest one (index order); later
						// chunks won't run, matching the parallel path's
						// lowest-chunk-wins fold in firstTrap.
						break
					}
				}
				tr.sends.seal()
				tr.bcasts = bb
				if o != nil {
					// The serial sweep bypasses par entirely; its busy time is
					// the engine goroutine's, folded to worker 0.
					o.timer.Add(0, time.Since(tObs))
				}
			} else {
				par.ForBoundaryChunks(bounds, func(c, lo, hi int) {
					cs := scratch.chunks[c]
					cs.reset(step, master.prevAggregates)
					cs.runRange(prog, lo, hi, step, ib, halted, sparse, candidates)
				})
				scratch.spliceSends(&tr.sends, numChunks)
				tr.bcasts = scratch.concatBcasts(tr.bcasts, numChunks)
			}
			if o != nil {
				// Emitted before the trap check so a panicking superstep's
				// compute span still reaches the sink — the flight recorder's
				// ring must contain the failing step. Each span ends where the
				// next begins.
				tObs = o.phase(obsPhaseCompute, step, tObs)
			}
			pe := scratch.firstTrap(numChunks, step)
			if pe == nil {
				break
			}
			if sup == nil || int(retried) >= sup.maxRetries || ck.snap == nil {
				pe.CheckpointPath = ck.emergency()
				if pe.CheckpointPath != "" {
					pe.FlightRecorderPath = o.flightDump(filepath.Dir(pe.CheckpointPath), pe.Error())
				}
				if retried > 0 {
					return nil, &RetryExhaustedError{
						Superstep:          step,
						Attempts:           int(retried) + 1,
						Cause:              pe,
						CheckpointPath:     pe.CheckpointPath,
						FlightRecorderPath: pe.FlightRecorderPath,
					}
				}
				return nil, pe
			}
			retried++
			sup.rollbackTo(ck.snap, halted, progAux, master, ds, scratch, cfg.Recorder)
		}
		if sup != nil && sup.maxRetries > 0 {
			sup.retries = append(sup.retries, retried)
		}

		// Deterministic merge of the chunk partials. sent is the logical
		// message count — one per edge for broadcasts, exactly what the
		// per-edge expansion produced before broadcasts became records — so
		// counters, charges, budgets, and termination are untouched by how
		// the traffic is physically represented.
		active, received, sent, unicast, extraIssue, extraLoads, extraStores, haltDelta := scratch.mergeCounters(numChunks)
		live += haltDelta
		if sent > maxMsgs {
			return nil, &MessageCapError{Superstep: step, Sent: sent, Cap: maxMsgs}
		}
		if k := len(res.DeliveredPerStep); ib.pull && received != res.DeliveredPerStep[k-1] {
			// The pull boundary reported its delivered count from the
			// frontier's out-degrees; the gather just read in-edges. They
			// differ only on adjacency that is not symmetric.
			return nil, &AsymmetricGraphError{Superstep: step - 1, Delivered: res.DeliveredPerStep[k-1], Gathered: received}
		}
		scratch.mergeAggregates(master, numChunks)

		// Direction decision for this superstep's delivery: fold the
		// chunks' newly-visited degree sums (single-owner writes merged in
		// chunk order, but a sum — worker-independent either way), then
		// compare the frontier's incident edges against the unvisited
		// incident edges. Everything here is a logical counter; the
		// decision is recorded before delivery so checkpoints persist it
		// even when this superstep is the run's last boundary.
		var dirMode DirectionMode
		var frontierEdges, unvisitedEdges int64
		if ds != nil {
			ds.visitedEdges += scratch.mergeVisited(numChunks)
			frontierEdges = sent - unicast
			unvisitedEdges = ds.totalEdges - ds.visitedEdges
			dirMode = ds.decide(frontierEdges, unicast)
			res.DirectionPerStep = append(res.DirectionPerStep, dirMode)
		}

		// Charge the compute phase: active dispatch, message receive,
		// message send, and chunked global buffer allocation.
		ph.AddTasks(active+sent,
			costs.ActiveIssuePerVertex*active+costs.RecvIssuePerMsg*received+costs.SendIssuePerMsg*sent+extraIssue,
			costs.ActiveLoadsPerVertex*active+costs.RecvLoadsPerMsg*received+costs.SendLoadsPerMsg*sent+extraLoads,
			costs.ActiveStoresPerVertex*active+costs.SendStoresPerMsg*sent+extraStores)
		ph.AddHot(trace.HotMsgCounter, costs.hotOps(sent))
		ph.ObserveTask(costs.ActiveIssuePerVertex + costs.ActiveLoadsPerVertex +
			costs.RecvIssuePerMsg + costs.RecvLoadsPerMsg)

		res.ActivePerStep = append(res.ActivePerStep, active)
		res.MessagesPerStep = append(res.MessagesPerStep, sent)
		res.Supersteps++

		// Snapshot aggregators for next superstep's PreviousAggregate
		// (Pregel visibility: values aggregated in superstep s are
		// readable in s+1). Aggregators accumulate over the whole run.
		if len(master.aggregates) > 0 {
			snap := make(map[string]int64, len(master.aggregates))
			for name, agg := range master.aggregates {
				snap[name] = agg.value
			}
			master.prevAggregates = snap
		}

		var st obs.StepStats
		if o != nil {
			tObs = o.phase(obsPhaseTerminate, step, tObs)
			st = obs.StepStats{Step: step, Active: active, Sent: sent, Received: received, Retries: retried}
			if ds != nil {
				st.Direction, st.FrontierEdges, st.UnvisitedEdges = dirMode.String(), frontierEdges, unvisitedEdges
			}
		}
		if sent == 0 && live == 0 {
			if o != nil {
				stepDone(st, numChunks, path{})
			}
			break
		}

		// Deliver: route the traffic into per-vertex inboxes, applying the
		// combiner if configured (deliver). SentPhysical is what was
		// physically materialized: one message per Send plus one record per
		// SendToNeighbors — the engine-side traffic the logical counter
		// deliberately does not show.
		tr.logical = sent
		delivered, took := scratch.deliver(tr, ib, cfg.SparseActivation, int64(step), dirMode)
		res.DeliveredPerStep = append(res.DeliveredPerStep, delivered)
		ph.AddTasks(0, 0, costs.DeliverLoadsPerMsg*sent, costs.DeliverStoresPerMsg*sent)
		if o != nil {
			tObs = o.phase(obsPhaseDeliver, step, tObs)
		}

		if cfg.SparseActivation {
			// Next worklist: message receivers plus vertices that stayed
			// awake, deduplicated and in ascending order for deterministic
			// execution.
			wake := scratch.mergeWake(numChunks)
			candidates = scratch.nextWorklist(candidates, step, wake, delivered, tr, stamp, ib)
			if o != nil {
				o.phase(obsPhaseWorklist, step, tObs)
			}
		}
		if o != nil {
			st.SentPhysical, st.Delivered = tr.sends.sealed+int64(len(tr.bcasts)), delivered
			stepDone(st, numChunks, took)
		}

		// Superstep boundary: snapshot/write checkpoints and honor stop
		// requests (checkpoint.go). The terminal superstep exits above, so
		// completed runs never checkpoint.
		if ck != nil {
			if o != nil {
				tObs = time.Now()
			}
			if err := ck.atBoundary(step, live, res, halted, tr, master, ds, cfg.Recorder); err != nil {
				return nil, err
			}
			if o != nil && ck.policy != nil {
				o.phase(obsPhaseCheckpoint, step, tObs)
			}
		}
		// A watchdog stall latched during this superstep surfaces after the
		// boundary work above, so the periodic checkpoint (if due) is still
		// written; a stalled *terminal* superstep exits through the normal
		// completion path instead — the run finished, deadline or not.
		if sup != nil {
			if err := sup.stallErr(); err != nil {
				return nil, err
			}
		}
	}
	if sup != nil && sup.maxRetries > 0 {
		res.RetriesPerStep = sup.retries
	}
	for name, agg := range master.aggregates {
		res.Aggregates[name] = agg.value
	}
	return res, nil
}
