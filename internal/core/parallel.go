package core

import (
	"math"
	"math/bits"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

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
//     count. The graph's degree prefix sum (graph.Offsets) is split once
//     per run into near-equal edge-work vertex ranges, so a hub vertex of a
//     skewed graph cannot make one chunk run sweepMaxChunks× longer than
//     its peers; a full scan is cut at those ranges, a sparse sweep at the
//     same ranges restricted to its candidates (sweepBoundaries).
//     Each chunk runs vertices with a private VertexContext — private
//     unicast log, work-charge accumulators, aggregator partials, wake list
//     and halt-transition counter — and the partials are merged in chunk
//     index order after the sweep. Splicing the per-chunk logs in chunk
//     order reproduces exactly the send order of a sequential sweep.
//
//   - Delivery (delivery.go) is a stable counting sort: the output
//     grouping (messages per destination, in send order) is unique, so the
//     internal partitioning of the sort is free to follow the worker
//     count. Its fan-in is derived from par.Workers() under a
//     scratch-memory budget (deliverChunks) rather than a fixed cap.
//
//   - Broadcasts (SendToNeighbors) are carried as (source, value) records
//     rather than per-edge messages, and a pure-broadcast superstep is
//     delivered straight from the records: the same sort or fold,
//     enumerating each record's adjacency (traffic.all), on push
//     supersteps, and on pull supersteps nothing but a stamp of each
//     record into the broadcaster lookaside — the next compute sweep
//     gathers every vertex's messages from its own neighbor list (see
//     deliver and chunkState.gather). Counters and charges still see one
//     logical message per edge.
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
//     boundaries, the partition is named in a checkpoint's fingerprint —
//     "degree" for a full scan, "ranges" for a sparse sweep — so a run never
//     resumes under boundaries it did not start with.)

// The shape of every partition into chunks: at most sweepMaxChunks chunks,
// each of at least sweepMinChunk items where there are enough to go round.
const (
	sweepMinChunk  = 64
	sweepMaxChunks = 256
)

// sweepChunkSize returns the fixed chunk size the delivery and worklist
// compaction sweeps partition count items by, whose outputs do not depend on
// the partitioning at all. It depends only on count.
func sweepChunkSize(count int) int {
	return max(count/sweepMaxChunks, sweepMinChunk)
}

// sweepTargetChunks is the chunk-count target of the weighted partitions:
// the sweepChunkSize shape expressed as a count. Depends only on count.
func sweepTargetChunks(count int) int {
	return min(max((count+sweepMinChunk-1)/sweepMinChunk, 1), sweepMaxChunks)
}

// sweepVertexWork is the constant per-vertex weight the sweep partition adds
// to each vertex's degree: it accounts for the fixed per-vertex dispatch
// cost, so zero-degree stretches still split instead of collapsing into one
// chunk.
const sweepVertexWork = 4

// sweepSerialMax is the known work of a compute sweep — items scanned, plus
// a mean adjacency list for each vertex awake and each message waiting,
// what a vertex that runs is assumed to touch — below which the serial
// sweep wins at any worker count: forking, joining and merging the chunks
// costs more than half of so small a sweep. Both sweeps merge the
// same per-chunk partials, so this is a pure host-speed knob.
const sweepSerialMax = 1 << 17

// hubFoldMin is the combining-path hub threshold: a destination group of
// at least this many messages is folded over hubFoldSeg-sized segments in
// parallel (see combineGroups). Below it, the exact sequential
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
	// one backs Messages() after a combining pull boundary (gather): the
	// folded value.
	one [1]int64
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
func (cs *chunkState) runRange(p Program, lo, hi, step int, ib *inbox, halted []bool, sparse bool, candidates []int64) {
	defer cs.guard()
	defer cs.ctx.returnBuf()
	if sparse {
		for i := lo; i < hi; i++ {
			cs.runVertex(p, candidates[i], step, ib, halted, true)
		}
		return
	}
	// The full scan: in a near-empty superstep almost every vertex is halted
	// with nothing to read, and skipping those here costs a fraction of the
	// call that would find the same thing out. After a pull that stamped no
	// receivers only the gather knows who has messages.
	off, code := ib.off, ib.code
	switch {
	case ib.pull && !ib.lookaside:
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

// gatherPool is the run's free list of adjacency buffers, each 2*MaxDegree
// long — one half for a decoded neighbor list, one for a pull's gathered
// values — so nothing ever has to grow one and DecodeNeighbors can be handed
// one on either graph representation (a flat graph's shared CSR slice comes
// back instead and the buffer goes unused). A sweep chunk holds a buffer
// from its first need of one until it ends, a traffic enumerator while it
// runs: at most par.Workers() are out at once, and all are back by the
// boundary.
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

// foldKind is how a pull-mode gather reduces a vertex's stamped neighbors:
// foldNone keeps them all (no combiner); the three built-in combiners fold
// every neighbor's slot, the unstamped ones holding their identity; any
// other function folds the stamped ones through the indirect call.
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

// identity is what an unstamped slot of the pull lookaside holds: the value
// that leaves the run's built-in fold unchanged.
func (ib *inbox) identity() int64 {
	if ib.fold == foldMin {
		return math.MaxInt64
	}
	return 0
}

// bit reads bit w of a vertex bitmap, as 0 or 1.
func bit(set []uint64, w int64) int64 { return int64(set[w>>6] >> (uint64(w) & 63) & 1) }

// gather is the consumer side of a pull superstep: vertex v walks its own
// neighbor list against the broadcaster lookaside and obtains exactly the
// messages the push scatter (no combiner: stamped neighbors' values in
// adjacency order, which on sorted adjacency is ascending source — the
// record order) or the push fold (combiner: left to right in the same
// order) would have put in its inbox. The order is a property of the graph
// alone, so the result is identical at any worker count, on retry and on
// resume. A built-in fold is one 8-byte load per arc and nothing else — an
// unstamped slot holds its identity (inbox.look), and whether v receives at
// all was settled per vertex at the boundary, so a message that equals the
// identity is still a message. The cursor of the no-combiner loop is
// branch-free too: stamped density in a pull-worthy superstep is far from 0
// or 1, and a data-dependent branch would mispredict on much of the walk.
func (cs *chunkState) gather(ib *inbox, v int64) []int64 {
	if ib.lookaside && ib.off[v] != ib.code {
		return nil // pullReceivers found no stamped neighbor
	}
	lent := cs.ctx.buf()
	half := len(lent) / 2
	nbrs := cs.eng.graph.DecodeNeighbors(v, lent[:0:half])
	if len(nbrs) == 0 {
		return nil // a saturated boundary stamps nobody: who has a neighbor receives
	}
	look, sent := ib.look, ib.sent
	var acc int64
	switch ib.fold {
	case foldNone:
		// Every probed value is stored at the cursor and the cursor only
		// advances past stamped ones; the cursor never overtakes the walk,
		// so len(nbrs) slots suffice.
		buf := lent[half:][:len(nbrs)]
		pos := 0
		for _, w := range nbrs {
			buf[pos] = look[w]
			pos += int(bit(sent, w))
		}
		return buf[:pos]
	case foldOr:
		for _, w := range nbrs {
			acc |= look[w]
		}
	case foldSum:
		for _, w := range nbrs {
			acc += look[w]
		}
	case foldMin:
		acc = math.MaxInt64
		for _, w := range nbrs {
			acc = min(acc, look[w])
		}
	default:
		first := true
		for _, w := range nbrs {
			switch {
			case bit(sent, w) == 0: // w did not broadcast
			case first:
				acc, first = look[w], false
			default:
				acc = ib.combine(acc, look[w])
			}
		}
	}
	cs.one[0] = acc
	return cs.one[:]
}

// runVertex executes one vertex against this chunk's private context. It
// is the parallel twin of the sequential engine's per-vertex dispatch.
func (cs *chunkState) runVertex(p Program, v int64, step int, ib *inbox, halted []bool, sparse bool) {
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

	// Delivery scratch (delivery.go). gather lends adjacency buffers to
	// sweep chunks and traffic enumerators; pullBnds / connected / symmetric
	// are what a pull knows of the graph alone (pullRanges, build);
	// bcastWork / shareBnds split traffic into a counting sort's shares;
	// has / acc are denseFold's.
	gather    gatherPool
	pullBnds  []int
	connected int64
	symmetric bool
	bcastWork []int64
	shareBnds []int
	has       []bool
	acc       []int64

	counts   []int32 // C*n destination cursors, share-major (countingSort)
	groupOff []int64 // n+1 group boundaries (combining path)
	groupVal []int64 // grouped message values (combining path); Run borrows it from flatPool
	rangeCnt []int64 // per-range counters for compaction sweeps
	rangeMax []int64 // per-range max group size (hub detection)
	foldBnds []int   // message-weighted fold range boundaries
	hubDest  []int64 // destinations with >= hubFoldMin messages, ascending
	hubVal   []int64 // prefolded hub values, parallel to hubDest
	hubPart  []int64 // per-segment partials of one hub prefold

	// Sweep chunk boundaries (see sweepBoundaries): ranges is the graph's
	// degree-weighted vertex partition, cut once per run; bounds is a sparse
	// sweep's restriction of it to the candidates.
	bounds []int
	ranges []int

	// Sparse-activation scratch.
	sortScratch []int64 // radix-sort ping buffer
}

// ensureLook sizes the pull lookaside, every slot holding the identity and
// no bit set.
func (ib *inbox) ensureLook(n int64) {
	if int64(len(ib.look)) < n {
		ib.look, ib.sent = make([]int64, n), make([]uint64, (n+63)/64)
		if id := ib.identity(); id != 0 {
			par.FillInt64(ib.look, id)
		}
	}
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
		cs.eng.bufs = master.bufs
		cs.ctx.engine = &cs.eng
		s.chunks = append(s.chunks, cs)
	}
	for _, cs := range s.chunks[:numChunks] {
		cs.visited = visited
	}
}

// sweepBoundaries returns the compute sweep's chunk boundaries for one
// superstep: a strictly increasing []int from 0 to the number of items swept
// (n, or the sparse sweep's candidates), a pure function of the graph offsets
// and the active set — never of the worker count. The graph's vertex ranges split the work prefix sum (degree +
// sweepVertexWork per vertex) into sweepTargetChunks(n) near-equal chunks,
// once per run, and a full scan is cut at them. A sparse sweep takes the same
// ranges restricted to its ascending candidates — one binary search per range
// boundary, each resuming where the last one ended — and keeps a cut only
// once the chunk behind it holds sweepMinChunk candidates. So every sparse
// chunk but the last holds at least that many, and none is heavier than one
// full range plus its first sweepMinChunk-1 candidates, with no pass over the
// candidates at all.
func (s *runScratch) sweepBoundaries(off, candidates []int64, sparse bool) []int {
	if s.ranges == nil {
		s.ranges = []int{0} // no vertices, no chunks
		if n := len(off) - 1; n > 0 {
			s.ranges = par.WeightedBoundaries(nil, n, sweepTargetChunks(n), func(i int) int64 {
				return off[i] + sweepVertexWork*int64(i)
			})
		}
	}
	if !sparse {
		return s.ranges
	}
	count := len(candidates)
	b := append(s.bounds[:0], 0)
	if count > sweepMinChunk {
		at := 0
		for _, v := range s.ranges[1 : len(s.ranges)-1] {
			i, _ := slices.BinarySearch(candidates[at:], int64(v))
			if at += i; at-b[len(b)-1] >= sweepMinChunk && at < count {
				b = append(b, at)
			}
		}
	}
	if count > 0 {
		b = append(b, count)
	}
	s.bounds = b
	return b
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

// fillBcastLookaside stamps each record's value into the per-source
// lookaside the pull gather reads, after retiring the previous fill: its set
// bits say which slots to hand back to the identity, O(n/64 + its frontier).
// Sequential and in record order, so with a combiner a source that broadcast
// more than once this superstep pre-folds its values deterministically
// (equality with the per-edge path then leans on the documented combiner
// laws — see deliver). Without one there is no fold to hide behind: a
// second record would lose a message, so the fill reports false and
// delivery falls back to the push scatter — a deterministic, input-driven
// fallback (the PullProgram contract says it cannot happen; the check makes
// a contract violation safe rather than silently wrong).
func (ib *inbox) fillBcastLookaside(bcasts []bcastRec, n, _ int64) bool {
	ib.ensureLook(n)
	look, sent, id := ib.look, ib.sent, ib.identity()
	for i, word := range sent {
		for ; word != 0; word &= word - 1 {
			look[i<<6|bits.TrailingZeros64(word)] = id
		}
		sent[i] = 0
	}
	ib.stamped = 0
	for _, r := range bcasts {
		switch {
		case bit(sent, r.src) == 0:
			sent[r.src>>6] |= 1 << (uint64(r.src) & 63)
			look[r.src] = r.val
			ib.stamped++
		case ib.combine != nil:
			look[r.src] = ib.combine(look[r.src], r.val)
		default:
			return false
		}
	}
	return true
}

// pullRanges returns the number of vertices with a neighbor — the most a
// combining pull can deliver — counted once per run along with the
// degree-weighted destination ranges of pullReceivers: both depend only on
// the graph.
func (s *runScratch) pullRanges(t *traffic) int64 {
	if len(s.pullBnds) == 0 {
		n, goff := int(t.g.NumVertices()), t.g.Offsets()
		s.pullBnds = par.WeightedBoundaries(s.pullBnds, n,
			sweepTargetChunks(n), func(i int) int64 {
				return goff[i] + int64(i)
			})
		for v := 0; v < n; v++ {
			if goff[v+1] > goff[v] {
				s.connected++
			}
		}
	}
	return s.connected
}

// pullReceivers counts the vertices with at least one stamped neighbor —
// what a combining pull delivers — over the ranges of pullRanges, each walk
// exiting on its first hit, and stamps them in the inbox's off: that is
// where gather, the full scan and nextWorklist look for receivers.
func (s *runScratch) pullReceivers(t *traffic, ib *inbox) int64 {
	g, sent, off, code := t.g, ib.sent, ib.off, ib.code
	s.rangeCnt = ensureInt64(s.rangeCnt, len(s.pullBnds)-1)
	rangeCnt := s.rangeCnt
	par.ForBoundaryChunks(s.pullBnds, func(r, lo, hi int) {
		var cnt int64
		for v := lo; v < hi; v++ {
			for w := range g.Adjacent(int64(v)) {
				if bit(sent, w) != 0 {
					cnt++
					off[v] = code
					break
				}
			}
		}
		rangeCnt[r] = cnt
	})
	return par.ExclusivePrefixSum(rangeCnt)
}

// combineGroups groups messages per destination with the stable sort,
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
func (s *runScratch) combineGroups(t *traffic, ib *inbox, n int64, C int) int64 {
	combine := ib.combine
	s.groupOff = ensureInt64(s.groupOff, int(n)+1)
	s.groupVal = ensureInt64(s.groupVal, int(t.logical))
	s.groupByDest(t, n, C, s.groupOff, s.groupVal)
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
	off := ib.off
	val := ensureInt64(ib.val, int(delivered))
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
	ib.val = val
	return delivered
}

// nextWorklist builds the next superstep's sparse-activation candidate
// list — message receivers plus vertices that stayed awake, deduplicated,
// in ascending vertex order — into the candidates backing array (cap n).
// Both strategies produce a sorted deduplicated set, so the order receivers
// are enumerated in is irrelevant.
//
// Two equivalent strategies, chosen by deterministic quantities only:
// large worklists use a parallel stamp-ordered dense sweep (ascending by
// construction, O(n)); small ones stamp-deduplicate the receivers and wake
// list and radix-sort, O(k) — the sort.Slice the sequential engine used is
// gone entirely.
func (s *runScratch) nextWorklist(candidates []int64, step int, wake []int64, delivered int64, t *traffic, stamp []int64, ib *inbox) []int64 {
	st, n := int64(step), int64(len(stamp))
	if (delivered+int64(len(wake)))*4 >= n || t.logical >= n {
		// The delivery just made says who received, in the form it built.
		off, code, look := ib.off, ib.code, ib.lookaside
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
	for dest := range t.all() {
		if stamp[dest] != st {
			stamp[dest] = st
			out = append(out, dest)
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
