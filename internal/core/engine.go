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
// sparse-activation worklist as a dense sweep over the halted and receiver
// bitmaps (see parallel.go). The package invariant is that the host worker count
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

// maxMessagesPerSuperstep bounds send-buffer growth. Algorithms that
// exceed it (BSP triangle counting at scale) must use a streaming evaluator
// instead; the engine returns *MessageCapError.
const maxMessagesPerSuperstep = 1 << 28

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
	// at the superstep boundary (Pregel's combiner optimization). Each
	// vertex's messages are folded left to right in send order, on every
	// delivery path and at any worker count, so any function gives the same
	// Result everywhere. Or, Sum and Min are recognised by identity and
	// folded inline on pull supersteps (resolveFold).
	Combiner func(a, b int64) int64
	// Recorder receives the work profile; nil disables recording.
	Recorder *trace.Recorder
	// Costs is the engine cost schedule; the zero value selects
	// DefaultCosts.
	Costs *CostSchedule
	// Obs receives host-runtime observability events: wall-clock spans
	// for each engine phase of each superstep, per-worker busy time,
	// per-superstep counters, and sampled memory statistics (package
	// obs). It is the engine's only sink: nil disables observability at
	// zero hot-path cost. When it is or tees an obs.Store, a crash dumps
	// that store's latest supersteps next to the emergency checkpoint.
	// Observability never affects Result or the recorded work profile.
	Obs obs.Sink
	// SparseActivation switches the runtime from the paper's full
	// per-superstep vertex scan to an active-worklist schedule: only
	// vertices that received messages or stayed awake are inspected. The
	// computation's results are identical; only the charged (and host)
	// scan work changes. This is the ablation for the paper's observation
	// that "the overhead of the early and late iterations is two orders of
	// magnitude larger" in BSP — with sparse activation that overhead
	// disappears (see xmtbench -exp ablation-activation).
	SparseActivation bool

	// The persistence and supervision settings, set through their Options:
	// checkpoint (WithCheckpoint), resume (WithResume), resumeLatest
	// (WithResumeLatest), stop (WithStop), maxRetries (WithRetries),
	// stepTimeout (WithStepTimeout) and runTimeout (WithRunTimeout).
	checkpoint   *ckpt.Policy
	resume       string
	resumeLatest bool
	stop         <-chan struct{}
	maxRetries   int
	stepTimeout  time.Duration
	runTimeout   time.Duration

	// msgCap, when positive (set only through export_test.go), replaces
	// maxMessagesPerSuperstep.
	msgCap int64
	// expandBroadcasts reverts SendToNeighbors to eager per-edge expansion
	// into the send log: the per-edge oracle the record path is tested
	// against (set only through export_test.go). Both treatments give the
	// same Result, profile and logical counters, so it is not fingerprinted.
	expandBroadcasts bool
	// direction, when DirPush or DirPull (set only through export_test.go),
	// forces every pullable superstep's decision: the push and pull oracles
	// the engine's own decisions are tested against. All three give the same
	// Result but for DirectionPerStep, and the same profile, so it is not
	// fingerprinted.
	direction DirectionMode
	// logSeen, when set (only through export_test.go), is handed every
	// delivered superstep's unicast log: the bytes it fills and the
	// messages it holds.
	logSeen func(bytes, msgs int64)
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
	// entry per superstep, DirPush or DirPull). The sequence is a pure
	// function of logical counters, identical at any worker count, and is
	// persisted in checkpoints so resume replays it exactly.
	DirectionPerStep []DirectionMode
	// RetriesPerStep records, when WithRetries set a positive bound, how many
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
	if cfg.checkpoint != nil && cfg.checkpoint.Dir == "" {
		return nil, fmt.Errorf("core: checkpoint policy without a directory")
	}
	maxSteps := cfg.MaxSupersteps
	if maxSteps == 0 {
		maxSteps = 1000
	} else if maxSteps < 0 {
		maxSteps = math.MaxInt // unbounded
	}
	maxMsgs := int64(maxMessagesPerSuperstep)
	if cfg.msgCap > 0 {
		maxMsgs = cfg.msgCap
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
	// The buffer sized by message volume comes from, and goes back to, the
	// process's other runs (flatCache).
	flat := takeFlat()
	scratch := &runScratch{gather: newGatherPool(2 * g.MaxDegree()), blocks: freeList[*msgBlock]{mk: poolBlock}}
	// ib is what each boundary's delivery builds and the next sweep reads.
	ib := newInbox(n, cfg.Combiner)
	ib.val = flat.inboxVal
	// tr is the superstep's outgoing traffic: the unicast log and the
	// broadcast records (one per SendToNeighbors call, not per edge).
	tr := &traffic{g: g, bufs: scratch.gather, sends: msgLog{blocks: &scratch.blocks}}
	defer func() {
		flat.inboxVal = ib.val
		putFlat(flat)
		// The run's log blocks go back to blockPool for the next run.
		tr.sends.release()
		for _, b := range scratch.blocks.free {
			blockPool.Put(b)
		}
	}()
	// laneSrc/progAux are the program's batching capability surfaces
	// (lanes.go): the lane assignment of a batched multi-source program
	// (obs reporting) and its auxiliary state slice (snapshot/restore/rollback below). Both
	// nil for ordinary programs.
	laneSrc := laneSourcesOf(cfg.Program)
	progAux := auxOf(cfg.Program)
	// sup is the run-supervision state (retry, watchdog, run deadline);
	// nil (no retries, no timeouts) costs one pointer check per
	// superstep (supervise.go).
	sup := startSup(&cfg)
	// ck is the checkpoint/interrupt state; nil (no policy, no stop
	// channel, no resume, no supervisor) costs one pointer check per
	// superstep boundary.
	ck := startCkpt(&cfg, g, maxSteps, maxMsgs, costs, sup)
	// No checkpoint write outlives Run: the caller owns the Result arrays a
	// snapshot references. A successful run collects the write's error
	// below; every other exit already has an error to report.
	defer ck.join()
	var resumeSnap *ckpt.Snapshot
	switch {
	case cfg.resume != "":
		s, err := ck.loadResume(cfg.resume)
		if err != nil {
			return nil, err
		}
		resumeSnap = s
	case cfg.resumeLatest:
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
	// ds is the direction-decision state.
	ds := startDir(&cfg, g)
	// o is the observability state; nil (no sink) costs one pointer check
	// per hook below. tObs is only written/read when o != nil.
	o := startObs(&cfg, g)
	var tObs time.Time
	if o != nil {
		defer o.finish()
		tObs = time.Now()
	}
	if sup != nil {
		sup.startWatchdog(o, cfg.checkpoint)
		defer sup.stop()
	}
	// halted has one bit per vertex. live counts the clear ones from the
	// chunks' halt transitions: a popcount would cost n/64 every superstep.
	halted := make([]uint64, (n+63)/64)
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

	// Sparse-activation worklist: the vertices worth inspecting this
	// superstep (message receivers plus non-halted vertices), nil under the
	// full scan. stamp deduplicates insertions per superstep.
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
		bufs:   scratch.gather,
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
		// the resumed inbox is built by the same path.
		scratch.deliver(tr, ib, candidates, res.DirectionPerStep[len(res.DirectionPerStep)-1])
		if cfg.SparseActivation {
			// The worklist is every vertex awake or with mail, however the
			// original boundary built it (awakeList).
			candidates = scratch.awakeList(candidates, halted, ib.recv)
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
		var scan, ph *trace.Phase
		var numChunks int
		var retried int64
		scanCount := n
		if cfg.SparseActivation {
			scanCount = int64(len(candidates))
		}
		for {
			// The last boundary is done with its traffic (and a trapped
			// attempt's is void): the blocks go back to the free list.
			tr.sends.release()
			scan = startPhase("bsp/scan", step)
			ph = startPhase("bsp/superstep", step)

			// Compute sweep: worker-independent chunks, each with a private
			// context, merged in chunk index order below. Chunk boundaries are
			// a pure function of the graph and the active set (see
			// sweepBoundaries) — never of the worker count — so results and
			// profiles are identical at any host configuration.
			bounds := scratch.sweepBoundaries(g.Offsets(), candidates, cfg.SparseActivation)
			numChunks = len(bounds) - 1
			scratch.ensureChunks(numChunks, master, ds)
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
				// one shared log through their contexts, open block and all —
				// appending in chunk order is the splice the parallel path
				// performs explicitly, and a near-empty superstep touches one
				// block.
				// Counter and aggregator partials stay per-chunk so their merge
				// fold structure (hence the result) is identical to the parallel
				// path's.
				// The shared log makes every broadcast record's seq global
				// already, so no offset fix-up is needed on this path.
				bb := tr.bcasts[:0]
				for c := 0; c < numChunks; c++ {
					lo, hi := bounds[c], bounds[c+1]
					cs := scratch.chunks[c]
					cs.reset(step)
					cs.ctx.log = &tr.sends
					cs.eng.bcastBuf = bb
					cs.runRange(prog, lo, hi, step, ib, halted, candidates)
					cs.ctx.log = &cs.eng.log
					bb = cs.eng.bcastBuf
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
					cs.reset(step)
					cs.runRange(prog, lo, hi, step, ib, halted, candidates)
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
		active, received, sent, unicast, extraIssue, extraLoads, extraStores, haltDelta, visitedDelta := scratch.mergeCounters(numChunks, tr.sends.sealed)
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
		ds.visitedEdges += visitedDelta
		frontierEdges := sent - unicast
		unvisitedEdges := ds.totalEdges - ds.visitedEdges
		dirMode := ds.decide(frontierEdges, unicast)
		res.DirectionPerStep = append(res.DirectionPerStep, dirMode)

		// Charge the superstep: the scan, active dispatch, message receive,
		// send, chunked global buffer allocation and delivery.
		costs.ChargeSuperstep(scan, ph, scanCount, active, received, sent, extraIssue, extraLoads, extraStores)

		res.ActivePerStep = append(res.ActivePerStep, active)
		res.MessagesPerStep = append(res.MessagesPerStep, sent)
		res.Supersteps++

		var st obs.StepStats
		if o != nil {
			tObs = o.phase(obsPhaseTerminate, step, tObs)
			st = obs.StepStats{Step: step, Active: active, Sent: sent, Received: received, Retries: retried,
				Direction: dirMode.String(), FrontierEdges: frontierEdges, UnvisitedEdges: unvisitedEdges}
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
		if cfg.logSeen != nil {
			cfg.logSeen(tr.sends.bytes(), tr.sends.sealed)
		}
		delivered, took := scratch.deliver(tr, ib, candidates, dirMode)
		res.DeliveredPerStep = append(res.DeliveredPerStep, delivered)
		if o != nil {
			tObs = o.phase(obsPhaseDeliver, step, tObs)
		}

		if cfg.SparseActivation {
			// Next worklist: message receivers plus vertices that stayed
			// awake, deduplicated and in ascending order for deterministic
			// execution.
			candidates = scratch.nextWorklist(candidates, step, live, delivered, tr, stamp, ib, halted)
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
	if err := ck.join(); err != nil {
		return nil, err
	}
	if sup != nil && sup.maxRetries > 0 {
		res.RetriesPerStep = sup.retries
	}
	for name, agg := range master.aggregates {
		res.Aggregates[name] = agg.value
	}
	return res, nil
}
