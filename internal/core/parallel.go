package core

import (
	"math"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

// Host-parallel execution of the BSP engine.
//
// The engine's invariant (shared with every kernel in this repository) is
// that the host worker count affects only wall-clock time: results and
// recorded work profiles are bit-identical whether par runs on 1 or N
// cores. The machinery here achieves that with deterministic chunking:
//
//   - The compute sweep is partitioned into chunks whose boundaries are a
//     pure function of the graph and the active set — never of the worker
//     count. The default (degree-weighted) schedule splits the CSR degree
//     prefix sum (graph.Offsets, or the candidate-degree prefix sum under
//     sparse activation) into near-equal edge-work chunks, so a hub vertex
//     of a skewed graph cannot make one chunk run targetChunks× longer
//     than its peers; the legacy fixed schedule splits by vertex count.
//     Each chunk runs vertices with a private VertexContext — private
//     unicast log, work-charge accumulators, aggregator partials, wake list
//     and halt-transition counter — and the partials are merged in chunk
//     index order after the sweep. Splicing the per-chunk logs in chunk
//     order reproduces exactly the send order of a sequential sweep.
//
//   - Delivery is a stable counting sort: the output grouping (messages
//     per destination, in send order) is unique, so the internal
//     partitioning of the sort is free to follow the worker count. Its
//     fan-in is derived from par.Workers() under a scratch-memory budget
//     (deliverChunks) rather than a fixed cap.
//
//   - Broadcasts (SendToNeighbors) are carried as (source, value) records
//     rather than per-edge messages, and a pure-broadcast superstep is
//     delivered straight from the records: a record-driven stable scatter
//     or push fold on push supersteps, and on pull supersteps nothing but a
//     stamp of each record into the broadcaster lookaside — the next
//     compute sweep gathers every vertex's messages from its own neighbor
//     list (see deliverBcasts and chunkState.gather). Counters and charges
//     still see one logical message per edge.
//
//   - The combining path groups messages per destination first (the same
//     stable sort) and then left-folds each destination's messages in send
//     order over destination ranges weighted by message count. Groups
//     smaller than hubFoldMin reproduce the sequential combine order for
//     ANY combiner — associativity is not required for determinism across
//     worker counts. A hub group of at least hubFoldMin messages is folded
//     over fixed-size segments whose partials combine in segment order — a
//     tree that is still a pure function of the group length, hence
//     worker-independent, but relies on the associativity Config.Combiner
//     documents to equal the flat left fold.
//
//   - Aggregators fold per chunk and the chunk partials fold in chunk
//     index order. Chunk boundaries are worker-independent, so the fold
//     tree — and therefore the result, even for non-associative
//     reductions — is too. (Because the fold tree follows chunk
//     boundaries, the chunk schedule is part of a checkpoint's fingerprint:
//     a run may only resume under the schedule it started with.)

// ChunkSchedule selects how Run partitions the compute sweep into chunks.
// Both schedules are deterministic — boundaries are a pure function of the
// graph and the active set — so either yields bit-identical results and
// profiles at any worker count; they may differ from each other only for
// non-associative aggregator reductions (the fold tree follows chunk
// boundaries), which is why the schedule is part of checkpoint
// fingerprints.
type ChunkSchedule int

const (
	// ChunkAuto selects the engine default, ChunkDegree.
	ChunkAuto ChunkSchedule = iota
	// ChunkDegree splits the degree prefix sum (the CSR offsets, or the
	// candidate-degree prefix under sparse activation) into near-equal
	// edge-work chunks — the schedule for skewed (RMAT, power-law) graphs,
	// where per-vertex work is dominated by adjacency size.
	ChunkDegree
	// ChunkFixed splits the sweep into fixed vertex-count chunks — the
	// legacy schedule, kept for A/B benchmarking and old checkpoints.
	ChunkFixed
)

// resolve maps ChunkAuto to the engine default.
func (s ChunkSchedule) resolve() ChunkSchedule {
	if s == ChunkAuto {
		return ChunkDegree
	}
	return s
}

// String returns the schedule's fingerprint name ("degree" or "fixed").
func (s ChunkSchedule) String() string {
	if s.resolve() == ChunkFixed {
		return "fixed"
	}
	return "degree"
}

// WithChunking selects the sweep chunk schedule (see Config.Chunking).
func WithChunking(s ChunkSchedule) Option {
	return func(c *Config) { c.Chunking = s }
}

// sweepChunkSize returns the fixed chunk size used to partition a sweep of
// count items. It depends only on count — never on the worker count — so
// chunk boundaries, and every merge keyed on chunk index, are identical
// across host configurations. It drives the ChunkFixed schedule and the
// delivery/worklist compaction sweeps, whose outputs do not depend on the
// partitioning at all.
func sweepChunkSize(count int) int {
	const (
		minChunk     = 64
		targetChunks = 256
	)
	cs := count / targetChunks
	if cs < minChunk {
		cs = minChunk
	}
	return cs
}

// sweepTargetChunks is the chunk-count target of the weighted schedules:
// the same 256-chunk / 64-vertex-minimum shape as sweepChunkSize, expressed
// as a count. Depends only on count.
func sweepTargetChunks(count int) int {
	const (
		minChunk     = 64
		targetChunks = 256
	)
	c := (count + minChunk - 1) / minChunk
	if c > targetChunks {
		c = targetChunks
	}
	if c < 1 {
		c = 1
	}
	return c
}

// sweepVertexWork is the constant per-vertex weight the degree-weighted
// schedule adds to each vertex's degree: it accounts for the fixed
// per-vertex dispatch cost, so zero-degree stretches still split instead
// of collapsing into one chunk.
const sweepVertexWork = 4

// deliverParallelMin is the send-buffer size below which the sequential
// delivery paths win on the host. Both paths produce identical output, so
// the threshold is a pure host-speed knob.
const deliverParallelMin = 1 << 14

// sweepSerialMax is the known work of a compute sweep — items scanned, plus
// a mean adjacency list for each vertex awake and each message waiting,
// what a vertex that runs is assumed to touch — below which the serial
// sweep wins at any worker count: forking, joining and merging the chunks
// costs more than half of so small a sweep. Both sweeps merge the
// same per-chunk partials, so like deliverParallelMin this is a pure
// host-speed knob.
const sweepSerialMax = 1 << 17

// hubFoldMin is the combining-path hub threshold: a destination group of
// at least this many messages is folded over hubFoldSeg-sized segments in
// parallel (see parCombineDeliver). Below it, the exact sequential
// left-fold order is preserved for any combiner.
const (
	hubFoldMin = 1 << 13
	hubFoldSeg = 1 << 11
)

// chunkState is the private state of one sweep chunk: everything a worker
// mutates while running its chunk's vertices, merged deterministically (in
// chunk index order) after the sweep barrier.
type chunkState struct {
	ctx VertexContext
	eng engineState
	// wake collects non-halted vertices (sparse activation only).
	wake []int64
	// active / received mirror the per-superstep counters of the
	// sequential engine, chunk-locally.
	active   int64
	received int64
	// haltDelta is the net change to the live (non-halted) vertex count
	// produced by this chunk's halt-flag transitions.
	haltDelta int64
	// visited is the run's shared visited bitmap (direction.go); nil when
	// the direction layer is inactive. Chunks write only vertices they own
	// (single-owner, no races) and visitedDelta accumulates the degree sum
	// of the vertices this chunk marked this superstep.
	visited      []bool
	visitedDelta int64
	// gatherBuf / one back Messages() after a pull boundary (gather): the
	// stamped neighbors' values in adjacency order when there is no
	// combiner, the folded value when there is. gatherBuf is on loan from
	// the run's gatherPool while the chunk runs.
	gatherBuf []int64
	one       [1]int64
	// scratch is the chunk's share of runScratch.chunkScratch.
	scratch int64
	// trap records a vertex-program panic recovered while running this
	// chunk (nil otherwise). The engine folds traps into a ProgramError
	// after the sweep, lowest chunk first.
	trap *programTrap
}

// programTrap is one recovered vertex-program panic.
type programTrap struct {
	vertex int64
	val    any
	stack  []byte
}

// guard converts a vertex-program panic into a chunk-local trap. Deferred
// once per chunk (not per vertex), so its hot-path cost is one defer per
// few hundred vertices. The trapped vertex is whatever the chunk's context
// was positioned on — runVertex sets ctx.id before calling Compute.
func (cs *chunkState) guard() {
	if r := recover(); r != nil {
		cs.trap = &programTrap{vertex: cs.ctx.id, val: r, stack: debug.Stack()}
	}
}

// runRange executes the chunk's vertex range under the panic guard. par
// spawns workers without any recovery of its own, so the guard must live
// inside the per-chunk closure — a program panic that escaped here would
// kill the process.
func (cs *chunkState) runRange(p Program, lo, hi, step int, ib *inboxView, halted []bool, sparse bool, candidates []int64) {
	defer cs.guard()
	if ib.pull {
		cs.gatherBuf = ib.bufs.get()
		defer ib.bufs.put(cs.gatherBuf)
	}
	if sparse {
		for i := lo; i < hi; i++ {
			cs.runVertex(p, candidates[i], step, ib, halted, true)
		}
		return
	}
	// The full scan: in a near-empty superstep almost every vertex is halted
	// with nothing to read, and skipping those here costs a fraction of the
	// call that would find the same thing out. After a pull only the gather
	// knows who has messages.
	off, code := ib.off, ib.code
	switch {
	case ib.pull:
		for v := lo; v < hi; v++ {
			cs.runVertex(p, int64(v), step, ib, halted, false)
		}
	case ib.lookaside:
		for v := lo; v < hi; v++ {
			if !halted[v] || off[v] == code {
				cs.runVertex(p, int64(v), step, ib, halted, false)
			}
		}
	default:
		for v := lo; v < hi; v++ {
			if !halted[v] || off[v+1] > off[v] {
				cs.runVertex(p, int64(v), step, ib, halted, false)
			}
		}
	}
}

// reset prepares the chunk for one superstep. Aggregator partials are not
// cleared here: mergeAggregates unseeds them as it consumes them. Nor is the
// unicast log, which every sweep leaves empty (spliceSends).
func (cs *chunkState) reset(step int, prevAggs map[string]int64) {
	cs.eng.superstep = step
	cs.eng.bcastBuf = cs.eng.bcastBuf[:0]
	cs.eng.sent = 0
	cs.eng.unicast = 0
	cs.eng.extraIssue, cs.eng.extraLoads, cs.eng.extraStores = 0, 0, 0
	cs.eng.prevAggregates = prevAggs
	cs.active, cs.received, cs.haltDelta = 0, 0, 0
	cs.visitedDelta = 0
	cs.wake = cs.wake[:0]
	cs.trap = nil
}

// inboxView is the sweep's read-side of the inbox, in whichever of its two
// representations the last delivery built (runScratch.lookaside): the CSR —
// off is n+1 offsets into val — or, when the superstep's traffic was far
// below n, the stamped lookaside, which touches only the receivers instead
// of rebuilding O(n) offsets: off[v] == code marks a receiver and span[v]
// packs its slice of val as lo<<32 | count. code is the complement of the
// delivering superstep (consumer step - 1), negative, so no CSR offset
// left in off from an earlier superstep can be mistaken for it.
//
// After a pull boundary (deliverBcasts stamped the broadcaster lookaside
// and built no inbox) there are no stored messages at all:
// chunkState.gather reads them off the vertex's own neighbor list, and
// under sparse activation off carries the stamps of pullReceivers.
type inboxView struct {
	val       []int64
	off       []int64
	span      []int64
	code      int64
	lookaside bool

	pull    bool
	look    []bcastSlot // broadcaster lookaside, stamped ^code
	fold    foldKind
	combine func(a, b int64) int64
	bufs    *gatherPool
}

// gatherPool is a free list of pull-gather buffers, each 2*MaxDegree long
// — one half for a decoded neighbor list, one for the gathered values — so
// gather never has to grow one. A chunk holds a buffer only while it runs:
// at most par.Workers() exist per run, however many chunks a sweep has.
type gatherPool struct {
	mu   sync.Mutex
	free [][]int64
	size int64
}

func (p *gatherPool) get() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return make([]int64, p.size)
}

func (p *gatherPool) put(b []int64) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// has reports whether v has stored messages.
func (ib *inboxView) has(v int64) bool {
	if ib.lookaside {
		return ib.off[v] == ib.code
	}
	return ib.off[v+1] > ib.off[v]
}

// slice returns vertex v's incoming messages.
func (ib *inboxView) slice(v int64) []int64 {
	if !ib.lookaside {
		return ib.val[ib.off[v]:ib.off[v+1]]
	}
	if ib.off[v] != ib.code {
		return nil
	}
	lo := ib.span[v] >> 32
	return ib.val[lo : lo+ib.span[v]&math.MaxUint32]
}

// foldKind is how a pull-mode gather reduces a vertex's stamped neighbors:
// foldNone keeps them all (no combiner); the three built-in combiners fold
// branch-free in registers; any other function folds through the indirect
// call.
type foldKind uint8

const (
	foldNone foldKind = iota
	foldGeneric
	foldOr
	foldSum
	foldMin
)

// resolveFold recognises the built-in combiners by function identity, once
// per run. A closure that merely behaves like one takes the generic fold.
func resolveFold(combine func(a, b int64) int64) foldKind {
	if combine == nil {
		return foldNone
	}
	switch reflect.ValueOf(combine).Pointer() {
	case reflect.ValueOf(Or).Pointer():
		return foldOr
	case reflect.ValueOf(Sum).Pointer():
		return foldSum
	case reflect.ValueOf(Min).Pointer():
		return foldMin
	}
	return foldGeneric
}

// gather is the consumer side of a pull superstep: vertex v walks its own
// neighbor list against the broadcaster lookaside and obtains exactly the
// messages the push scatter (no combiner: stamped neighbors' values in
// adjacency order, which on sorted adjacency is ascending source — the
// record order) or the push fold (combiner: left to right in the same
// order) would have put in its inbox. The order is a property of the graph
// alone, so the result is identical at any worker count, on retry and on
// resume. Stamped density in a pull-worthy superstep is far from 0 or 1,
// so every loop but the generic fold is branch-free: a data-dependent
// branch would mispredict on a large fraction of the edge walk.
func (cs *chunkState) gather(ib *inboxView, v int64) []int64 {
	if ib.lookaside && ib.off[v] != ib.code {
		return nil // pullReceivers found no stamped neighbor
	}
	// On a flat graph nbrs is the shared CSR slice and the first half of
	// the buffer goes unused.
	half := len(cs.gatherBuf) / 2
	nbrs := cs.eng.graph.DecodeNeighbors(v, cs.gatherBuf[:0:half])
	look, st := ib.look, ^ib.code
	var acc, hits int64
	switch ib.fold {
	case foldNone:
		// Every probed value is stored at the cursor and the cursor only
		// advances past stamped ones; the cursor never overtakes the walk,
		// so len(nbrs) slots suffice.
		buf := cs.gatherBuf[half:][:len(nbrs)]
		pos := 0
		for _, w := range nbrs {
			slot := look[w]
			buf[pos] = slot.val
			if slot.stamp == st {
				pos++
			}
		}
		return buf[:pos]
	case foldOr:
		for _, w := range nbrs {
			slot := look[w]
			m := slot.mask(st)
			acc |= slot.val & m
			hits -= m
		}
	case foldSum:
		for _, w := range nbrs {
			slot := look[w]
			m := slot.mask(st)
			acc += slot.val & m
			hits -= m
		}
	case foldMin:
		acc = math.MaxInt64
		for _, w := range nbrs {
			slot := look[w]
			m := slot.mask(st)
			if c := slot.val&m | math.MaxInt64&^m; c < acc {
				acc = c
			}
			hits -= m
		}
	default:
		for _, w := range nbrs {
			if slot := look[w]; slot.stamp == st {
				if hits > 0 {
					acc = ib.combine(acc, slot.val)
				} else {
					acc, hits = slot.val, 1
				}
			}
		}
	}
	if hits == 0 {
		return nil
	}
	cs.one[0] = acc
	return cs.one[:]
}

// runVertex executes one vertex against this chunk's private context. It
// is the parallel twin of the sequential engine's per-vertex dispatch.
func (cs *chunkState) runVertex(p Program, v int64, step int, ib *inboxView, halted []bool, sparse bool) {
	var msgs []int64
	if ib.pull {
		msgs = cs.gather(ib, v)
	} else {
		msgs = ib.slice(v)
	}
	hasMsgs := len(msgs) > 0
	if step > 0 && !hasMsgs && halted[v] {
		return
	}
	cs.active++
	cs.received += int64(len(msgs))
	ctx := &cs.ctx
	ctx.id = v
	ctx.msgs = msgs
	ctx.halt = false
	sentBefore := cs.eng.sent
	p.Compute(ctx)
	if cs.visited != nil && !cs.visited[v] && (hasMsgs || cs.eng.sent > sentBefore) {
		// A vertex is visited once it has received or sent a message — the
		// logical event the direction heuristic's unvisited-edge count
		// tracks. Single-owner write: v belongs to exactly this chunk.
		cs.visited[v] = true
		cs.visitedDelta += cs.eng.graph.Degree(v)
	}
	if ctx.halt != halted[v] {
		halted[v] = ctx.halt
		if ctx.halt {
			cs.haltDelta--
		} else {
			cs.haltDelta++
		}
	}
	if sparse && !ctx.halt {
		cs.wake = append(cs.wake, v)
	}
}

// runScratch holds every buffer the engine reuses across supersteps: the
// per-chunk worker states and the delivery / worklist scratch that the
// sequential engine used to reallocate each superstep.
type runScratch struct {
	chunks []*chunkState
	// chunkScratch is the chunks' total buffer footprint (scratchBytes).
	chunkScratch int64
	sendOff      []int64 // per-chunk offsets into the superstep's unicast stream
	bcastOff     []int   // per-chunk broadcast-record offsets for the merge copy
	wake         []int64

	// Broadcast delivery scratch (see deliverBcasts). expandLog is the
	// empty spare log (a segment list, no blocks) expandTraffic swaps
	// against the superstep's, nbrBuf its decode buffer; bcastLook is the
	// value-stamped broadcaster lookaside a pull
	// boundary fills and the next sweep gathers from — pulled says the last
	// delivery was such a boundary, so that sweep reads bcastLook instead of
	// an inbox; pullBnds caches the degree-weighted destination ranges of
	// pullReceivers (graph-constant); gather lends that sweep's chunks their
	// buffers; bcastWork / bcastBnds partition broadcast records by degree
	// for the parallel scatter.
	expandLog msgLog
	nbrBuf    []int64
	bcastLook []bcastSlot
	pulled    bool
	gather    gatherPool
	pullBnds  []int
	bcastWork []int64
	bcastBnds []int

	// Sequential delivery scratch (the hoisted next/has/acc of the old
	// per-superstep allocations). has is all-false between deliveries:
	// seqCombineDeliver re-clears the flags it set during its compaction
	// sweep, so no O(n) zeroing is ever needed.
	next []int64
	has  []bool
	acc  []int64

	// Parallel delivery scratch.
	counts   []int32 // C*n destination counters: chunk-major in stableGroupByDest, dest-major in parBcastScatter
	groupOff []int64 // n+1 group boundaries (combining path)
	groupVal []int64 // grouped message values (combining path); Run borrows it from flatPool
	rangeCnt []int64 // per-range counters for compaction sweeps
	rangeMax []int64 // per-range max group size (hub detection)
	foldBnds []int   // message-weighted fold range boundaries
	hubDest  []int64 // destinations with >= hubFoldMin messages, ascending
	hubVal   []int64 // prefolded hub values, parallel to hubDest
	hubPart  []int64 // per-segment partials of one hub prefold

	// Sweep chunk boundaries (see sweepBoundaries). denseBounds caches the
	// dense degree-weighted boundaries, which depend only on the graph.
	bounds      []int
	denseBounds []int
	candWork    []int64           // candidate-degree prefix sum, len count+1
	densePrefix func(i int) int64 // memoized closure over the graph offsets
	candPrefix  func(i int) int64 // memoized closure over candWork

	// Sparse-activation scratch.
	sortScratch []int64 // radix-sort ping buffer

	// Inbox lookaside (see inboxView): span is allocated by the first
	// delivery small enough to use it; lookaside says the last delivery
	// built it (or, after a pull under sparse activation, stamped its
	// receivers) rather than the CSR.
	span      []int64
	lookaside bool
}

// bcastSlot pairs a broadcaster's stamp and value in one 16-byte slot.
// The pull gather probes the lookaside once per adjacency entry — random
// accesses over a vertex-length array — so keeping stamp and value on the
// same cache line costs one miss per probe instead of two.
type bcastSlot struct {
	stamp int64
	val   int64
}

// mask is all ones when the slot was stamped by superstep st, else zero —
// what the branch-free folds of gather select a value with.
func (b bcastSlot) mask(st int64) int64 {
	if b.stamp == st {
		return -1
	}
	return 0
}

// ensureBcastLook sizes the broadcaster lookaside (stamps start at -1,
// which matches no superstep).
func (s *runScratch) ensureBcastLook(n int64) []bcastSlot {
	if int64(len(s.bcastLook)) < n {
		s.bcastLook = make([]bcastSlot, n)
		look := s.bcastLook
		par.ForChunked(int(n), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				look[i].stamp = -1
			}
		})
	}
	return s.bcastLook
}

// lookasideCutoff is how far below n a superstep's message count must be
// for delivery to stamp the lookaside (O(sent), random access) instead of
// building the CSR (three O(n) passes, sequential): sent*lookasideCutoff <
// n. A pure host-speed knob — BenchmarkDeliverCutoff (delivery plus the
// scan that reads it) has the lookaside 13% ahead at n/4 and level at n/2
// once the arrays outgrow the cache, and ahead all the way to n while they
// fit.
const lookasideCutoff = 4

// lookasideBuilt counts lookaside deliveries; only tests read it.
var lookasideBuilt atomic.Int64

// startLookaside begins a lookaside delivery for superstep st, returning
// the stamp code and the span array.
func (s *runScratch) startLookaside(n, st int64) (code int64, span []int64) {
	if int64(len(s.span)) < n {
		s.span = make([]int64, n)
	}
	s.lookaside = true
	lookasideBuilt.Add(1)
	return ^st, s.span
}

// ensureChunks guarantees at least numChunks chunk states exist, each
// wired to the run's shared graph/costs/states and (when the direction
// layer is active) the shared visited bitmap.
func (s *runScratch) ensureChunks(numChunks int, master *engineState, visited []bool) {
	for len(s.chunks) < numChunks {
		cs := &chunkState{}
		cs.eng.graph = master.graph
		cs.eng.costs = master.costs
		cs.eng.states = master.states
		cs.eng.expand = master.expand
		cs.ctx.engine = &cs.eng
		s.chunks = append(s.chunks, cs)
	}
	for _, cs := range s.chunks[:numChunks] {
		cs.visited = visited
	}
}

// sweepBoundaries computes the compute sweep's chunk boundaries for one
// superstep: a strictly increasing []int starting at 0 and ending at count,
// a pure function of (schedule, graph offsets, active set) — never of the
// worker count. Under ChunkDegree it splits the work prefix sum (degree +
// sweepVertexWork per item) into sweepTargetChunks near-equal chunks: the
// dense prefix is the CSR offsets themselves (computed once per run and
// cached, since the dense sweep is always over all n vertices); the sparse
// prefix is built per superstep over the candidate degrees. Under
// ChunkFixed it replicates the legacy sweepChunkSize partition.
func (s *runScratch) sweepBoundaries(off []int64, candidates []int64, sparse bool, sched ChunkSchedule, count int) []int {
	if count <= 0 {
		s.bounds = append(s.bounds[:0], 0)
		return s.bounds
	}
	if sched.resolve() == ChunkFixed {
		cs := sweepChunkSize(count)
		b := s.bounds[:0]
		for lo := 0; lo < count; lo += cs {
			b = append(b, lo)
		}
		b = append(b, count)
		s.bounds = b
		return b
	}
	if sparse && sweepTargetChunks(count) == 1 {
		// One chunk no matter how the weights fall — skip the per-superstep
		// candidate prefix sum, which relay-style programs (tiny active set,
		// many supersteps) would otherwise pay on every superstep.
		s.bounds = append(s.bounds[:0], 0, count)
		return s.bounds
	}
	if !sparse {
		if s.densePrefix == nil {
			s.densePrefix = func(i int) int64 {
				return off[i] + sweepVertexWork*int64(i)
			}
		}
		if len(s.denseBounds) == 0 {
			s.denseBounds = par.WeightedBoundaries(s.denseBounds, count,
				sweepTargetChunks(count), s.densePrefix)
		}
		return s.denseBounds
	}
	// Sparse: candWork[i] = summed work of candidates [0, i), with the total
	// at candWork[count] (exclusive prefix over per-candidate weights plus a
	// trailing zero).
	s.candWork = ensureInt64(s.candWork, count+1)
	cw := s.candWork
	par.ForChunked(count, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := candidates[i]
			cw[i] = (off[v+1] - off[v]) + sweepVertexWork
		}
	})
	cw[count] = 0
	par.ParallelExclusivePrefixSum(cw)
	if s.candPrefix == nil {
		s.candPrefix = func(i int) int64 { return s.candWork[i] }
	}
	s.bounds = par.WeightedBoundaries(s.bounds, count,
		sweepTargetChunks(count), s.candPrefix)
	return s.bounds
}

// mergeCounters sums the per-chunk superstep counters (serial over a few
// hundred chunks; the order is irrelevant for integer sums). sent is the
// logical message count — broadcasts count one message per edge, exactly
// what per-edge expansion would have appended.
func (s *runScratch) mergeCounters(numChunks int) (active, received, sent, unicast, extraIssue, extraLoads, extraStores, haltDelta int64) {
	for _, cs := range s.chunks[:numChunks] {
		active += cs.active
		received += cs.received
		sent += cs.eng.sent
		unicast += cs.eng.unicast
		extraIssue += cs.eng.extraIssue
		extraLoads += cs.eng.extraLoads
		extraStores += cs.eng.extraStores
		haltDelta += cs.haltDelta
	}
	return
}

// mergeVisited sums the chunks' newly-visited degree deltas for one
// superstep (an integer sum — worker- and order-independent).
func (s *runScratch) mergeVisited(numChunks int) int64 {
	var d int64
	for _, cs := range s.chunks[:numChunks] {
		d += cs.visitedDelta
	}
	return d
}

// firstTrap returns the ProgramError for the lowest-indexed chunk that
// trapped a vertex-program panic this superstep, or nil. Chunk boundaries
// are worker-independent and each chunk runs its vertices in ascending
// order, so the reported vertex is the lowest panicking vertex — identical
// at any host worker count.
func (s *runScratch) firstTrap(numChunks, step int) *ProgramError {
	for _, cs := range s.chunks[:numChunks] {
		if cs.trap != nil {
			return &ProgramError{
				Vertex:    cs.trap.vertex,
				Superstep: step,
				Phase:     "compute",
				Recovered: cs.trap.val,
				Stack:     cs.trap.stack,
			}
		}
	}
	return nil
}

// spliceSends moves the chunks' unicast logs into dst in chunk index order
// — exactly the send order a sequential sweep would have produced — by
// pointer: no message is copied, and every chunk's log is left empty.
// s.sendOff[c] ends up as the stream position of chunk c's first message.
func (s *runScratch) spliceSends(dst *msgLog, numChunks int) {
	s.sendOff = ensureInt64(s.sendOff, numChunks)
	for c, cs := range s.chunks[:numChunks] {
		l := &cs.eng.log
		l.seal()
		s.sendOff[c] = dst.sealed
		dst.segs = append(dst.segs, l.segs...)
		dst.sealed += l.sealed
		clear(l.segs)
		l.segs, l.sealed = l.segs[:0], 0
	}
}

// concatBcasts concatenates the per-chunk broadcast records into dst in
// chunk index order — ascending source vertex, the order a sequential
// sweep records them in — globalizing each record's seq by the chunk's
// unicast offset (s.sendOff, so spliceSends must run first). The serial
// fast path threads one shared record buffer instead and needs no merge.
func (s *runScratch) concatBcasts(dst []bcastRec, numChunks int) []bcastRec {
	if cap(s.bcastOff) < numChunks+1 {
		s.bcastOff = make([]int, numChunks+1)
	}
	s.bcastOff = s.bcastOff[:numChunks+1]
	total := 0
	for c := 0; c < numChunks; c++ {
		s.bcastOff[c] = total
		total += len(s.chunks[c].eng.bcastBuf)
	}
	s.bcastOff[numChunks] = total
	if cap(dst) < total {
		dst = make([]bcastRec, total)
	}
	dst = dst[:total]
	par.ForCoarse(numChunks, func(c int) {
		base := s.sendOff[c]
		out := dst[s.bcastOff[c]:s.bcastOff[c+1]]
		for i, r := range s.chunks[c].eng.bcastBuf {
			r.seq += base
			out[i] = r
		}
	})
	return dst
}

// mergeWake concatenates the per-chunk wake lists (sparse activation). Order is
// irrelevant downstream — the worklist build stamps or sorts — but chunk
// order keeps it deterministic anyway.
func (s *runScratch) mergeWake(numChunks int) []int64 {
	s.wake = s.wake[:0]
	for _, cs := range s.chunks[:numChunks] {
		s.wake = append(s.wake, cs.wake...)
	}
	return s.wake
}

// mergeAggregates folds each chunk's aggregator partials into the run's
// persistent aggregators in chunk index order, then unseeds the partials
// for the next superstep. Chunk boundaries are worker-independent, so the
// fold order — hence the value, for any reduction — is too.
func (s *runScratch) mergeAggregates(master *engineState, numChunks int) {
	for _, cs := range s.chunks[:numChunks] {
		if cs.eng.aggregates == nil {
			continue
		}
		for name, a := range cs.eng.aggregates {
			if !a.seeded {
				continue
			}
			if master.aggregates == nil {
				master.aggregates = map[string]*aggregator{}
			}
			m, ok := master.aggregates[name]
			if !ok {
				m = &aggregator{reduce: a.reduce}
				master.aggregates[name] = m
			}
			if m.reduce == nil {
				// An aggregator restored from a checkpoint carries its value
				// but not its (unserializable) reduction; adopt the one the
				// resumed program registered.
				m.reduce = a.reduce
			}
			if !m.seeded {
				m.value, m.seeded = a.value, true
			} else {
				m.value = m.reduce(m.value, a.value)
			}
			a.seeded = false
		}
	}
}

// flatBufs are the two buffers of a run sized by its message volume — the
// inbox values and the combining path's grouped values. They grow to the
// run's largest superstep and, like the log's blocks, are worth keeping
// across runs: flatPool hands the next Run in the process the pair the last
// one returned, un-zeroed (every delivery writes what it later reads).
type flatBufs struct{ inboxVal, groupVal []int64 }

var flatPool = sync.Pool{New: func() any { return new(flatBufs) }}

func ensureInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// bcastExpandMax is the logical-message count below which a pure-broadcast
// superstep is expanded to per-edge messages instead of delivered from
// records: small supersteps are where the O(sent) sparse lookaside paths
// shine, and expansion there costs what the sequential engine always paid.
// A pure host-speed knob — both treatments deliver the same sequences.
const bcastExpandMax = 1 << 14

// maybeExpand normalizes one superstep's outgoing traffic before delivery.
// Broadcast records are kept (O(frontier) physical traffic) only when the
// superstep is pure broadcast and big enough to amortize the record paths'
// O(n) passes; a mixed Send/SendToNeighbors superstep or a small one is
// expanded to per-edge messages — reproducing the exact interleaved send
// order via each record's seq — and delivered through the legacy paths.
// logical is the logical sent count (one message per broadcast edge). It
// returns the records delivery still has to consume.
func (s *runScratch) maybeExpand(sends *msgLog, bcasts []bcastRec, g *graph.Graph, logical int64) []bcastRec {
	if len(bcasts) == 0 || sends.sealed == 0 && logical >= bcastExpandMax {
		return bcasts
	}
	s.expandTraffic(sends, bcasts, g)
	return bcasts[:0]
}

// expandTraffic replaces the unicast log by the merge of it and the
// broadcast records, one message per edge, in the exact order a per-edge
// SendToNeighbors would have produced: a record's seq is its position in
// the unicast stream, and seqs are non-decreasing, so one pass over both
// reconstructs the interleave.
func (s *runScratch) expandTraffic(sends *msgLog, bcasts []bcastRec, g *graph.Graph) {
	out := s.expandLog
	// rest[0][at:] is the unread part of the stream, ui its position.
	rest, at, ui := sends.segs, 0, int64(0)
	copyTo := func(upto int64) {
		for ui < upto {
			seg := rest[0][at:]
			k := int(min(int64(len(seg)), upto-ui))
			for _, m := range seg[:k] {
				out.add(m.Dest, m.Value)
			}
			ui += int64(k)
			if at += k; at == len(rest[0]) {
				rest, at = rest[1:], 0
			}
		}
	}
	for _, r := range bcasts {
		copyTo(r.seq)
		nbrs := g.DecodeNeighbors(r.src, s.nbrBuf)
		if g.Compressed() {
			s.nbrBuf = nbrs
		}
		for _, w := range nbrs {
			out.add(w, r.val)
		}
	}
	copyTo(sends.sealed)
	out.seal()
	sends.release()
	s.expandLog, *sends = *sends, out
}

// deliver routes one superstep's traffic into per-vertex inboxes, combining
// same-destination messages when combine is non-nil, and returns the number
// of delivered (post-combining) messages. Which representation it builds —
// the CSR arrays (inboxOff, inboxVal) or the lookaside stamped for
// superstep st — is decided here, per superstep, from the traffic alone:
// the O(sent) lookaside paths win when the messages are few relative to
// the vertex set; once they are not, the CSR build's O(n) passes are
// amortized and its branch-free counting sort is cheaper per message.
// Traffic arrives as sends (the per-edge unicast log) plus bcasts
// (broadcast records, non-empty only after maybeExpand kept them); when
// records are present sends is empty and the record paths expand them
// straight into the inbox. Every path produces the same per-vertex message
// sequences (the internal layout of inboxVal may differ), so the choice
// is a pure host-speed decision that never reaches the charged profile;
// see deliverBcasts for the one associativity caveat. A pull boundary
// builds no inbox at all and leaves s.pulled set instead.
func (s *runScratch) deliver(sends *msgLog, bcasts []bcastRec, logical int64, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, sparse bool, st int64, dir DirectionMode) int64 {
	s.pulled = false
	// logical is sends.sealed unless records are present.
	parallel := par.Workers() > 1 && logical >= deliverParallelMin && logical < math.MaxInt32
	lookaside := !parallel && logical*lookasideCutoff < min(n, math.MaxInt32)
	switch {
	case len(bcasts) > 0:
		return s.deliverBcasts(bcasts, logical, g, n, combine, inboxOff, inboxVal, lookaside, sparse, st, dir)
	case lookaside && combine == nil:
		return s.seqDeliverSparse(sends, n, *inboxOff, inboxVal, st)
	case lookaside:
		return s.seqCombineDeliverSparse(sends, n, combine, *inboxOff, inboxVal, st)
	}
	s.lookaside = false
	if combine == nil {
		if !parallel {
			return s.seqDeliver(sends, n, inboxOff, inboxVal)
		}
		val := ensureInt64(*inboxVal, int(logical))
		s.stableGroupByDest(sends, n, deliverChunks(n), *inboxOff, val)
		*inboxVal = val
		return logical
	}
	if !parallel {
		return s.seqCombineDeliver(sends, n, combine, inboxOff, inboxVal)
	}
	return s.parCombineDeliver(sends, n, combine, inboxOff, inboxVal)
}

// deliverBcasts delivers a pure-broadcast superstep straight from its
// records — the tentpole of the broadcast-aware message path. The paths
// and their determinism obligations:
//
//   - Push, no combiner: scatter. Walk the records in order (ascending
//     source), scattering each record's value to its adjacency through
//     counting-sort cursors. Record order + adjacency order IS the per-edge
//     send order, so the output equals the legacy stable grouping EXACTLY —
//     for any graph, directed or not, with no assumptions on anything.
//
//   - Push, combiner: sequential push-fold from the records, which is the
//     legacy left fold in the legacy order exactly, minus the intermediate
//     buffer.
//
//   - Pull: records are stamped into the per-source value lookaside and
//     that is all the boundary does — O(frontier). The next compute sweep
//     gathers: every vertex walks its own neighbor list and reads the
//     stamped neighbors' values in neighbor order (chunkState.gather) —
//     zero intermediate messages. Neighbor order is a property of the
//     graph, so the messages are bit-identical at any worker count. They
//     equal the push send order exactly when adjacency lists are sorted
//     ascending (graph.SortedAdjacency — senders run, hence send, in
//     ascending order), which the no-combiner pull requires; with a
//     combiner, on unsorted graphs and when one source broadcasts more than
//     once in a superstep (the lookaside pre-folds its values in record
//     order), equality with the per-edge path leans on the commutativity +
//     associativity Config.Combiner documents — the same contract the hub
//     prefolds rely on.
//
// dir is the superstep's recorded direction decision (direction.go):
// DirPull selects the pull, DirPush the push, and DirAuto — the legacy
// engine, no direction layer — keeps PR 5's combiner-pull heuristic. The
// decision never depends on the worker count; parallel-vs-sequential below
// is the usual host-speed routing within the decided direction.
//
// A pull boundary returns what the push would have delivered without
// building it: with no combiner every logical message arrives, and the sum
// of the frontier's out-degrees equals the sum of its in-degrees on the
// symmetric adjacency an undirected graph has (Run checks the gathered
// total against it — AsymmetricGraphError); with a combiner it is the
// number of vertices with a stamped neighbor.
//
// A superstep small enough for the lookaside (deliver decides) goes through
// the O(logical) lookaside twins of scatter/push-fold whatever dir says — a
// gather sweep over every edge costs more than reading a few stored
// messages; a pull boundary under sparse activation stamps its receivers
// into the lookaside itself (pullReceivers).
func (s *runScratch) deliverBcasts(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, lookaside, sparse bool, st int64, dir DirectionMode) int64 {
	if lookaside {
		if combine == nil {
			return s.bcastScatterSparse(bcasts, logical, g, n, *inboxOff, inboxVal, st)
		}
		return s.bcastCombineSparse(bcasts, g, n, combine, *inboxOff, inboxVal, st)
	}
	s.lookaside = false
	pull := dir == DirPull
	if dir == DirAuto && combine != nil {
		pull = !g.Directed() && logical*2 >= g.NumEdges()
	}
	if pull && s.fillBcastLookaside(bcasts, combine, n, st) {
		s.pulled = true
		var stamps []int64
		if sparse {
			stamps, s.lookaside = *inboxOff, true
		}
		if combine != nil || sparse {
			if receivers := s.pullReceivers(g, n, st, stamps); combine != nil {
				return receivers
			}
		}
		return logical
	}
	switch {
	case combine != nil:
		return s.seqBcastCombine(bcasts, g, n, combine, inboxOff, inboxVal)
	case par.Workers() > 1 && logical >= deliverParallelMin && logical < math.MaxInt32:
		return s.parBcastScatter(bcasts, logical, g, n, inboxOff, inboxVal)
	}
	return s.seqBcastScatter(bcasts, logical, g, n, inboxOff, inboxVal)
}

// seqBcastScatter is the record-driven twin of seqDeliver: a stable
// counting sort whose input is enumerated from the records' adjacencies
// instead of a materialized buffer. Identical output to seqDeliver on the
// expanded messages.
func (s *runScratch) seqBcastScatter(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	off := *inboxOff
	for i := range off {
		off[i] = 0
	}
	comp := g.Compressed()
	for _, r := range bcasts {
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				off[w+1]++
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				off[w+1]++
			}
		}
	}
	for v := int64(0); v < n; v++ {
		off[v+1] += off[v]
	}
	val := ensureInt64(*inboxVal, int(logical))
	s.next = ensureInt64(s.next, int(n))
	next := s.next
	copy(next, off[:n])
	for _, r := range bcasts {
		v := r.val
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				val[next[w]] = v
				next[w]++
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				val[next[w]] = v
				next[w]++
			}
		}
	}
	*inboxVal = val
	return logical
}

// parBcastScatter is the parallel record-driven counting sort: records are
// split into degree-weighted ranges (the broadcast analogue of
// stableGroupByDest's message chunks), each range counts per-(destination,
// range) into an int32 matrix, and an exclusive prefix sum in (dest,
// range) order yields cursors that realize the unique stable grouping —
// (destination, record order, adjacency order), which is exactly the
// per-edge send order. The fan-in tracks the worker count freely for the
// same reason stableGroupByDest's does.
func (s *runScratch) parBcastScatter(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	nrec := len(bcasts)
	s.bcastWork = ensureInt64(s.bcastWork, nrec+1)
	bw := s.bcastWork
	par.ForChunked(nrec, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bw[i] = g.Degree(bcasts[i].src) + 1
		}
	})
	bw[nrec] = 0
	par.ParallelExclusivePrefixSum(bw)
	C := deliverChunks(n)
	s.bcastBnds = par.WeightedBoundaries(s.bcastBnds, nrec, C, func(i int) int64 { return bw[i] })
	bnds := s.bcastBnds
	R := len(bnds) - 1
	rw := int64(R)
	need := n * rw
	if int64(cap(s.counts)) < need {
		s.counts = make([]int32, need)
	}
	s.counts = s.counts[:need]
	counts := s.counts
	par.FillInt32(counts, 0)

	comp := g.Compressed()
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		rc := int64(r)
		for _, rec := range bcasts[lo:hi] {
			if comp {
				it := g.NeighborDecoder(rec.src)
				for w, ok := it.Next(); ok; w, ok = it.Next() {
					counts[w*rw+rc]++
				}
			} else {
				for _, w := range g.Neighbors(rec.src) {
					counts[w*rw+rc]++
				}
			}
		}
	})
	par.ParallelExclusivePrefixSum32(counts)

	off := *inboxOff
	par.ForChunked(int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			off[v] = int64(counts[int64(v)*rw])
		}
	})
	off[n] = logical

	val := ensureInt64(*inboxVal, int(logical))
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		rc := int64(r)
		for _, rec := range bcasts[lo:hi] {
			v := rec.val
			if comp {
				it := g.NeighborDecoder(rec.src)
				for w, ok := it.Next(); ok; w, ok = it.Next() {
					i := w*rw + rc
					p := counts[i]
					counts[i] = p + 1
					val[p] = v
				}
			} else {
				for _, w := range g.Neighbors(rec.src) {
					i := w*rw + rc
					p := counts[i]
					counts[i] = p + 1
					val[p] = v
				}
			}
		}
	})
	*inboxVal = val
	return logical
}

// fillBcastLookaside stamps each record's value into the per-source
// lookaside the pull gather reads. Sequential and in record order, so with
// a combiner a source that broadcast more than once this superstep
// pre-folds its values deterministically (equality with the per-edge path
// then leans on the documented combiner laws — see deliverBcasts). Without
// one there is no fold to hide behind: a second record would lose a
// message, so the fill reports false and delivery falls back to the push
// scatter — a deterministic, input-driven fallback (the PullProgram
// contract says it cannot happen; the check makes a contract violation
// safe rather than silently wrong).
func (s *runScratch) fillBcastLookaside(bcasts []bcastRec, combine func(a, b int64) int64, n, st int64) bool {
	look := s.ensureBcastLook(n)
	for _, r := range bcasts {
		if look[r.src].stamp != st {
			look[r.src] = bcastSlot{stamp: st, val: r.val}
		} else if combine != nil {
			look[r.src].val = combine(look[r.src].val, r.val)
		} else {
			return false
		}
	}
	return true
}

// pullReceivers counts the vertices with at least one stamped neighbor —
// what a combining pull delivers — over degree-weighted destination ranges
// (cached once per run — they depend only on the graph), each walk exiting
// on its first hit. Under sparse activation stamps is the lookaside's stamp
// array, and they are stamped into it too: that is where nextWorklist and
// gather look for receivers.
func (s *runScratch) pullReceivers(g *graph.Graph, n, st int64, stamps []int64) int64 {
	goff := g.Offsets()
	if len(s.pullBnds) == 0 {
		s.pullBnds = par.WeightedBoundaries(s.pullBnds, int(n),
			sweepTargetChunks(int(n)), func(i int) int64 {
				return goff[i] + int64(i)
			})
	}
	s.rangeCnt = ensureInt64(s.rangeCnt, len(s.pullBnds)-1)
	rangeCnt, look := s.rangeCnt, s.bcastLook
	comp := g.Compressed()
	par.ForBoundaryChunks(s.pullBnds, func(r, lo, hi int) {
		var cnt int64
		for v := lo; v < hi; v++ {
			hit := false
			if comp {
				it := g.NeighborDecoder(int64(v))
				for w, ok := it.Next(); ok; w, ok = it.Next() {
					if look[w].stamp == st {
						hit = true
						break
					}
				}
			} else {
				for _, w := range g.Neighbors(int64(v)) {
					if look[w].stamp == st {
						hit = true
						break
					}
				}
			}
			if hit {
				cnt++
				if stamps != nil {
					stamps[v] = ^st
				}
			}
		}
		rangeCnt[r] = cnt
	})
	return par.ExclusivePrefixSum(rangeCnt)
}

// seqBcastCombine is the record-driven twin of seqCombineDeliver: push
// each record's value to its adjacency, folding per destination in the
// exact legacy send order — correct for ANY combiner and for directed
// graphs, where the pull fold cannot see in-edges.
func (s *runScratch) seqBcastCombine(bcasts []bcastRec, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	if int64(len(s.has)) < n {
		s.has = make([]bool, n)
		s.acc = make([]int64, n)
	}
	has, acc := s.has, s.acc
	var delivered int64
	comp := g.Compressed()
	for _, r := range bcasts {
		v := r.val
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				if has[w] {
					acc[w] = combine(acc[w], v)
				} else {
					has[w] = true
					acc[w] = v
					delivered++
				}
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				if has[w] {
					acc[w] = combine(acc[w], v)
				} else {
					has[w] = true
					acc[w] = v
					delivered++
				}
			}
		}
	}
	val := ensureInt64(*inboxVal, int(delivered))
	off := *inboxOff
	var pos int64
	for v := int64(0); v < n; v++ {
		off[v] = pos
		if has[v] {
			val[pos] = acc[v]
			pos++
			has[v] = false
		}
	}
	off[n] = pos
	*inboxVal = val
	return delivered
}

// bcastScatterSparse is the record-driven twin of seqDeliverSparse:
// O(logical) work touching only receivers, no O(n) pass at all.
func (s *runScratch) bcastScatterSparse(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, off []int64, inboxVal *[]int64, st int64) int64 {
	code, span := s.startLookaside(n, st)
	comp := g.Compressed()
	for _, r := range bcasts {
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				tally(off, span, code, w)
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				tally(off, span, code, w)
			}
		}
	}
	val := ensureInt64(*inboxVal, int(logical))
	var pos int64
	for _, r := range bcasts {
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				pos = place(val, span, pos, w, r.val)
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				pos = place(val, span, pos, w, r.val)
			}
		}
	}
	*inboxVal = val
	return logical
}

// tally counts one message for dest in the first pass of a lookaside
// scatter, stamping dest on first arrival: span[dest] is the negated count.
func tally(off, span []int64, code, dest int64) {
	if off[dest] != code {
		off[dest], span[dest] = code, -1
	} else {
		span[dest]--
	}
}

// place stores value in dest's slice of val in the second pass. The first
// message to reach dest claims val[pos:pos+count] and turns span[dest] from
// the negated count into lo<<32 | cursor, which ends as the lo<<32 | count
// the sweep reads. Slices are laid out in order of first arrival.
func place(val, span []int64, pos, dest, value int64) int64 {
	sp := span[dest]
	if sp < 0 {
		sp, pos = pos<<32, pos-sp
	}
	val[sp>>32+sp&math.MaxUint32] = value
	span[dest] = sp + 1
	return pos
}

// bcastCombineSparse is the record-driven twin of seqCombineDeliverSparse:
// fold per destination in exact send order, touching only receivers.
func (s *runScratch) bcastCombineSparse(bcasts []bcastRec, g *graph.Graph, n int64, combine func(a, b int64) int64, off []int64, inboxVal *[]int64, st int64) int64 {
	code, span := s.startLookaside(n, st)
	val := (*inboxVal)[:0]
	comp := g.Compressed()
	for _, r := range bcasts {
		if comp {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				val = fold(val, span, off, code, combine, w, r.val)
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				val = fold(val, span, off, code, combine, w, r.val)
			}
		}
	}
	*inboxVal = val
	return int64(len(val))
}

// fold combines value into dest's single slot of val during a combining
// lookaside delivery, appending the slot on first arrival.
func fold(val, span, off []int64, code int64, combine func(a, b int64) int64, dest, value int64) []int64 {
	if off[dest] != code {
		off[dest], span[dest] = code, int64(len(val))<<32|1
		return append(val, value)
	}
	i := span[dest] >> 32
	val[i] = combine(val[i], value)
	return val
}

// seqDeliverSparse is the lookaside counterpart of seqDeliver: it touches
// only the receivers (O(sent) work, no O(n) offset rebuild).
func (s *runScratch) seqDeliverSparse(sends *msgLog, n int64, off []int64, inboxVal *[]int64, st int64) int64 {
	code, span := s.startLookaside(n, st)
	for _, seg := range sends.segs {
		for _, m := range seg {
			tally(off, span, code, m.Dest)
		}
	}
	val := ensureInt64(*inboxVal, int(sends.sealed))
	var pos int64
	for _, seg := range sends.segs {
		for _, m := range seg {
			pos = place(val, span, pos, m.Dest, m.Value)
		}
	}
	*inboxVal = val
	return pos
}

// seqCombineDeliverSparse combines per destination in send order, touching
// only the receivers.
func (s *runScratch) seqCombineDeliverSparse(sends *msgLog, n int64, combine func(a, b int64) int64, off []int64, inboxVal *[]int64, st int64) int64 {
	code, span := s.startLookaside(n, st)
	val := (*inboxVal)[:0]
	for _, seg := range sends.segs {
		for _, m := range seg {
			val = fold(val, span, off, code, combine, m.Dest, m.Value)
		}
	}
	*inboxVal = val
	return int64(len(val))
}

// seqDeliver is the sequential non-combining counting sort, with the
// cursor array hoisted into run-level scratch.
func (s *runScratch) seqDeliver(sends *msgLog, n int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	off := *inboxOff
	for i := range off {
		off[i] = 0
	}
	for _, seg := range sends.segs {
		for _, m := range seg {
			off[m.Dest+1]++
		}
	}
	for v := int64(0); v < n; v++ {
		off[v+1] += off[v]
	}
	val := ensureInt64(*inboxVal, int(sends.sealed))
	s.next = ensureInt64(s.next, int(n))
	next := s.next
	copy(next, off[:n])
	for _, seg := range sends.segs {
		for _, m := range seg {
			val[next[m.Dest]] = m.Value
			next[m.Dest]++
		}
	}
	*inboxVal = val
	return sends.sealed
}

// seqCombineDeliver is the sequential combining path: one slot per
// destination that received anything, folded in send order. The has flags
// are cleared during the compaction sweep, restoring the all-false
// invariant without a separate zeroing pass.
func (s *runScratch) seqCombineDeliver(sends *msgLog, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	if int64(len(s.has)) < n {
		s.has = make([]bool, n)
		s.acc = make([]int64, n)
	}
	has, acc := s.has, s.acc
	var delivered int64
	for _, seg := range sends.segs {
		for _, m := range seg {
			if has[m.Dest] {
				acc[m.Dest] = combine(acc[m.Dest], m.Value)
			} else {
				has[m.Dest] = true
				acc[m.Dest] = m.Value
				delivered++
			}
		}
	}
	val := ensureInt64(*inboxVal, int(delivered))
	off := *inboxOff
	var pos int64
	for v := int64(0); v < n; v++ {
		off[v] = pos
		if has[v] {
			val[pos] = acc[v]
			pos++
			has[v] = false
		}
	}
	off[n] = pos
	*inboxVal = val
	return delivered
}

// deliverChunkBudget is the counting-sort scratch budget: the fan-in C
// keeps C*n int32 destination counters, and C is chosen so that array
// stays within this many entries (64 MiB) however wide the host is.
const deliverChunkBudget = 1 << 24

// deliverChunks picks the counting-sort fan-in: enough chunks to feed the
// workers (2 per worker so the tail balances), bounded only by the
// scratch-memory budget rather than a fixed cap — a 48-core host gets
// 96-way fan-in on any graph up to ~175k vertices and degrades
// proportionally beyond. The sort's output is the unique stable grouping
// whatever C is, so tracking the worker count here cannot perturb results.
func deliverChunks(n int64) int {
	C := par.Workers() * 2
	if n > 0 {
		if byBudget := int(deliverChunkBudget / n); byBudget < C {
			C = byBudget
		}
	}
	if C < 2 {
		C = 2
	}
	return C
}

// stableGroupByDest scatters the log's values into val grouped by
// destination, preserving send order within each destination (a stable
// two-pass counting sort over C contiguous runs of segments), and fills off
// (length n+1) with the group boundaries. The output is the unique stable
// grouping, independent of the internal chunking, so the fan-in C may track
// the worker count freely (deliverChunks).
//
// The counters are chunk-major — share c owns the contiguous row
// counts[c*n : (c+1)*n] — so two workers never write the same cache line.
// Destination-major, the C counters of one destination (and of a skewed
// graph's hot low-numbered hubs) shared a line that every increment stole
// from the other workers. Requires fewer than 2^31 messages (the caller
// gates on this).
func (s *runScratch) stableGroupByDest(sends *msgLog, n int64, C int, off, val []int64) {
	need := n * int64(C)
	if int64(cap(s.counts)) < need {
		s.counts = make([]int32, need)
	}
	s.counts = s.counts[:need]
	counts := s.counts
	par.FillInt32(counts, 0)

	// Pass 1: per-(chunk, destination) counts.
	segs := sends.segs
	par.ForCoarse(C, func(c int) {
		row := counts[int64(c)*n : int64(c+1)*n]
		for _, seg := range segs[c*len(segs)/C : (c+1)*len(segs)/C] {
			for _, m := range seg {
				row[m.Dest]++
			}
		}
	})

	// Exclusive prefix sum in (dest, chunk) order — a transposed walk of the
	// matrix, blocked over destination ranges: total each range's columns,
	// scan the totals, then turn every column into its start cursors. They
	// realize the stable order: destination-major, then send (chunk,
	// position) order within a destination.
	rcs := sweepChunkSize(int(n))
	s.rangeCnt = ensureInt64(s.rangeCnt, (int(n)+rcs-1)/rcs)
	rangeCnt := s.rangeCnt
	par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
		var total int64
		for base := int64(0); base < need; base += n {
			for _, k := range counts[base+int64(lo) : base+int64(hi)] {
				total += int64(k)
			}
		}
		rangeCnt[r] = total
	})
	par.ExclusivePrefixSum(rangeCnt)
	par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
		run := int32(rangeCnt[r])
		for d := int64(lo); d < int64(hi); d++ {
			off[d] = int64(run)
			for i := d; i < need; i += n {
				counts[i], run = run, run+counts[i]
			}
		}
	})
	off[n] = sends.sealed

	// Pass 2: scatter through the per-(chunk, dest) cursors.
	par.ForCoarse(C, func(c int) {
		row := counts[int64(c)*n : int64(c+1)*n]
		for _, seg := range segs[c*len(segs)/C : (c+1)*len(segs)/C] {
			for _, m := range seg {
				p := row[m.Dest]
				row[m.Dest] = p + 1
				val[p] = m.Value
			}
		}
	})
}

// parCombineDeliver groups messages per destination with the stable sort,
// then folds each destination's group and compacts the folded values into
// the inbox. Two skew defenses keep a hub inbox from serializing the
// phase:
//
//   - The compaction sweep runs over destination ranges weighted by
//     message count — gOff is itself a message prefix sum, so
//     WeightedBoundaries splits it into near-equal fold-work ranges
//     instead of equal vertex-count ranges.
//
//   - A group of at least hubFoldMin messages (a hub inbox) is prefolded
//     in parallel over hubFoldSeg-sized segments, whose partials combine
//     in segment index order. The segment tree is a pure function of the
//     group length, so it is worker-independent; it equals the flat left
//     fold by the associativity Config.Combiner documents. Groups below
//     the threshold keep the exact sequential left-fold order, preserving
//     determinism for ANY combiner on non-skewed traffic.
func (s *runScratch) parCombineDeliver(sends *msgLog, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	s.groupOff = ensureInt64(s.groupOff, int(n)+1)
	s.groupVal = ensureInt64(s.groupVal, int(sends.sealed))
	s.stableGroupByDest(sends, n, deliverChunks(n), s.groupOff, s.groupVal)
	gOff, gVal := s.groupOff, s.groupVal

	// Fold ranges weighted by messages-per-destination (+1 per vertex so
	// message-free stretches still split).
	s.foldBnds = par.WeightedBoundaries(s.foldBnds, int(n),
		sweepTargetChunks(int(n)), func(i int) int64 {
			return gOff[i] + int64(i)
		})
	numR := len(s.foldBnds) - 1
	s.rangeCnt = ensureInt64(s.rangeCnt, numR)
	s.rangeMax = ensureInt64(s.rangeMax, numR)
	rangeCnt, rangeMax := s.rangeCnt, s.rangeMax
	par.ForBoundaryChunks(s.foldBnds, func(r, lo, hi int) {
		var cnt, maxG int64
		for v := lo; v < hi; v++ {
			if g := gOff[v+1] - gOff[v]; g > 0 {
				cnt++
				if g > maxG {
					maxG = g
				}
			}
		}
		rangeCnt[r] = cnt
		rangeMax[r] = maxG
	})

	// Prefold hub groups. Detection cost is confined to ranges whose max
	// group size crossed the threshold, so the common no-hub superstep pays
	// nothing beyond the max tracking above.
	s.hubDest = s.hubDest[:0]
	for r := 0; r < numR; r++ {
		if rangeMax[r] < hubFoldMin {
			continue
		}
		for v := int64(s.foldBnds[r]); v < int64(s.foldBnds[r+1]); v++ {
			if gOff[v+1]-gOff[v] >= hubFoldMin {
				s.hubDest = append(s.hubDest, v)
			}
		}
	}
	hubs := s.hubDest
	s.hubVal = ensureInt64(s.hubVal, len(hubs))
	for i, h := range hubs {
		seg := gVal[gOff[h]:gOff[h+1]]
		numSeg := (len(seg) + hubFoldSeg - 1) / hubFoldSeg
		s.hubPart = ensureInt64(s.hubPart, numSeg)
		part := s.hubPart
		par.ForFixedChunks(len(seg), hubFoldSeg, func(si, lo, hi int) {
			acc := seg[lo]
			for j := lo + 1; j < hi; j++ {
				acc = combine(acc, seg[j])
			}
			part[si] = acc
		})
		acc := part[0]
		for si := 1; si < numSeg; si++ {
			acc = combine(acc, part[si])
		}
		s.hubVal[i] = acc
	}

	delivered := par.ExclusivePrefixSum(rangeCnt)
	off := *inboxOff
	val := ensureInt64(*inboxVal, int(delivered))
	par.ForBoundaryChunks(s.foldBnds, func(r, lo, hi int) {
		pos := rangeCnt[r]
		for v := lo; v < hi; v++ {
			off[v] = pos
			glo, ghi := gOff[v], gOff[v+1]
			if ghi > glo {
				var acc int64
				if ghi-glo >= hubFoldMin {
					hidx := sort.Search(len(hubs), func(j int) bool {
						return hubs[j] >= int64(v)
					})
					acc = s.hubVal[hidx]
				} else {
					acc = gVal[glo]
					for i := glo + 1; i < ghi; i++ {
						acc = combine(acc, gVal[i])
					}
				}
				val[pos] = acc
				pos++
			}
		}
	})
	off[n] = delivered
	*inboxVal = val
	return delivered
}

// nextWorklist builds the next superstep's sparse-activation candidate
// list — message receivers plus vertices that stayed awake, deduplicated,
// in ascending vertex order — into the candidates backing array (cap n).
// Receivers are enumerated from the unicast log's destinations plus the
// broadcast records' adjacencies (logical is the combined logical message
// count); both strategies produce a sorted deduplicated set, so enumeration
// order is irrelevant.
//
// Two equivalent strategies, chosen by deterministic quantities only:
// large worklists use a parallel stamp-ordered dense sweep (ascending by
// construction, O(n)); small ones stamp-deduplicate the receivers and wake
// list and radix-sort, O(k) — the sort.Slice the sequential engine used is
// gone entirely.
func (s *runScratch) nextWorklist(candidates []int64, step int, wake []int64, delivered int64, sends *msgLog, bcasts []bcastRec, g *graph.Graph, logical int64, stamp []int64, n int64, inboxOff []int64) []int64 {
	st := int64(step)
	if (delivered+int64(len(wake)))*4 >= n || logical >= n {
		// The delivery just made says who received, in the form it built.
		off, code, look := inboxOff, ^st, s.lookaside
		// Dense sweep: mark the wake set, then collect every vertex with a
		// fresh inbox or a fresh wake stamp, in index order.
		// Wake entries are unique (a vertex runs at most once per
		// superstep), so the stamp writes are disjoint.
		par.ForChunked(len(wake), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				stamp[wake[i]] = st
			}
		})
		rcs := sweepChunkSize(int(n))
		numR := (int(n) + rcs - 1) / rcs
		s.rangeCnt = ensureInt64(s.rangeCnt, numR)
		rangeCnt := s.rangeCnt
		par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
			var cnt int64
			for v := lo; v < hi; v++ {
				if stamp[v] == st || look && off[v] == code || !look && off[v+1] > off[v] {
					cnt++
				}
			}
			rangeCnt[r] = cnt
		})
		k := par.ExclusivePrefixSum(rangeCnt)
		out := candidates[:k]
		par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
			pos := rangeCnt[r]
			for v := lo; v < hi; v++ {
				if stamp[v] == st || look && off[v] == code || !look && off[v+1] > off[v] {
					out[pos] = int64(v)
					pos++
				}
			}
		})
		return out
	}

	out := candidates[:0]
	for _, seg := range sends.segs {
		for _, m := range seg {
			if stamp[m.Dest] != st {
				stamp[m.Dest] = st
				out = append(out, m.Dest)
			}
		}
	}
	for _, r := range bcasts {
		if g.Compressed() {
			it := g.NeighborDecoder(r.src)
			for w, ok := it.Next(); ok; w, ok = it.Next() {
				if stamp[w] != st {
					stamp[w] = st
					out = append(out, w)
				}
			}
		} else {
			for _, w := range g.Neighbors(r.src) {
				if stamp[w] != st {
					stamp[w] = st
					out = append(out, w)
				}
			}
		}
	}
	for _, v := range wake {
		if stamp[v] != st {
			stamp[v] = st
			out = append(out, v)
		}
	}
	s.sortScratch = ensureInt64(s.sortScratch, len(out))
	par.RadixSortInt64(out, s.sortScratch, n-1)
	return out
}
