package core

import (
	"iter"
	"math"
	"math/bits"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"weak"

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
//     same ranges restricted to its candidates (sweepBoundaries), every cut
//     a multiple of 64: a chunk owns whole words of the bitmaps it writes
//     (wordRanges). Each chunk runs vertices with a private VertexContext —
//     private unicast log, work-charge accumulators, aggregator partials
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
//   - A combiner folds each destination's messages left to right in send
//     order on every path: sequentially at the boundary (lookasideFold,
//     denseFold), or along the receiver's ascending neighbor list in a
//     pull's gather. No fold is a tree, so no combiner needs to be
//     associative for determinism across worker counts.
//
//   - Aggregators fold per chunk and the chunk partials fold in chunk
//     index order. Chunk boundaries are worker-independent, so the fold
//     tree — and therefore the result, even for non-associative
//     reductions — is too. (Because the fold tree follows chunk
//     boundaries, the partition is named in a checkpoint's fingerprint —
//     "degree64" for a full scan, "ranges64" for a sparse sweep — so a run
//     never resumes under boundaries it did not start with.)

// The shape of every partition into chunks: at most sweepMaxChunks chunks,
// each of at least sweepMinChunk items where there are enough to go round.
const (
	sweepMinChunk  = 64
	sweepMaxChunks = 256
)

// sweepChunkSize returns the fixed block size the counting sort's cursor
// pass partitions count destinations by, whose output does not depend on
// the partitioning at all: whole bitmap words, depending only on count.
func sweepChunkSize(count int) int {
	return max(count/sweepMaxChunks&^63, sweepMinChunk)
}

// wordRanges splits [0, n), n > 0, into at most sweepTargetChunks(n) ranges
// of near-equal weight under the prefix sum at, every cut rounded down to a
// multiple of 64 (collapsed cuts dropped): a range owns whole bitmap words.
func wordRanges(dst []int, n int, at func(i int) int64) []int {
	b := par.WeightedBoundaries(dst, n, sweepTargetChunks(n), at)
	out := b[:1]
	for _, c := range b[1 : len(b)-1] {
		if c &^= 63; c > out[len(out)-1] {
			out = append(out, c)
		}
	}
	return append(out, n)
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

// chunkState is the private state of one sweep chunk: everything a worker
// mutates while running its chunk's vertices, merged deterministically (in
// chunk index order) after the sweep barrier.
type chunkState struct {
	ctx VertexContext
	eng engineState
	// active / received mirror the per-superstep counters of the
	// sequential engine, chunk-locally.
	active   int64
	received int64
	// halt walks the run's halted bitmap; haltDelta is the net change to
	// the live (non-halted) vertex count its transitions made.
	halt      wordCursor
	haltDelta int64
	// seen walks the run's visited bitmap (direction.go); visitedDelta
	// accumulates the degree sum of the vertices this chunk marked this
	// superstep.
	seen         wordCursor
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
// kill the process. A sparse sweep (candidates non-nil) runs
// candidates[lo:hi]; the full scan runs the awake vertices of [lo, hi).
func (cs *chunkState) runRange(p Program, lo, hi, step int, ib *inbox, halted []uint64, candidates []int64) {
	defer cs.guard()
	defer cs.ctx.detach()
	cs.ctx.attach()
	cs.halt, cs.seen = wordCursor{set: halted, i: -1}, wordCursor{set: cs.seen.set, i: -1}
	if candidates != nil {
		for _, v := range candidates[lo:hi] {
			cs.runVertex(p, v, step, ib)
		}
	} else {
		for v := range awake(halted, ib.recv, lo, hi) {
			cs.runVertex(p, v, step, ib)
		}
	}
	cs.halt.flush()
	cs.seen.flush()
}

// wordCursor walks a vertex bitmap for a chunk's ascending vertices, loading
// each word once and storing it back, if changed, when it moves on: chunks
// share cache lines, and per-bit accesses bounce a line between workers (the
// relay's superstep 0, every vertex halting, ran 60% longer at w=2). A
// trapped attempt loses its last word; the rollback restores it anyway.
type wordCursor struct {
	set    []uint64
	i      int64
	w, was uint64
}

// at moves the cursor to v's word and reports v's bit.
func (c *wordCursor) at(v int64) bool {
	if v>>6 != c.i {
		c.flush()
		c.i, c.w = v>>6, c.set[v>>6]
		c.was = c.w
	}
	return c.w>>(v&63)&1 != 0
}

// flip toggles v's bit; the cursor is at v's word.
func (c *wordCursor) flip(v int64) { c.w ^= 1 << (v & 63) }

// flush stores the word the cursor is at if it changed.
func (c *wordCursor) flush() {
	if c.w != c.was {
		c.set[c.i] = c.w
	}
}

// awake enumerates in ascending order the vertices of [lo, hi) that are not
// halted or received at the last boundary — the set bits of ^halted | recv,
// 64 vertices per load, the last word masked at hi. lo is a multiple of 64,
// as every cut of a partition that reads or writes a bitmap is. Like
// traffic.all, its body is inlined into the caller's loop.
func awake(halted, recv []uint64, lo, hi int) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		h := halted[lo>>6 : (hi+63)>>6]
		r := recv[lo>>6:][:len(h)]
		for j, hw := range h {
			base := lo + j<<6
			w := ^hw | r[j]
			if hi-base < 64 {
				w &= 1<<(hi-base) - 1
			}
			for ; w != 0; w &= w - 1 {
				if !yield(int64(base | bits.TrailingZeros64(w))) {
					return
				}
			}
		}
	}
}

// reset prepares the chunk for one superstep. Aggregator partials are not
// cleared here: mergeAggregates unseeds them as it consumes them. Nor is the
// unicast log, which every sweep leaves empty (spliceSends).
func (cs *chunkState) reset(step int) {
	cs.eng.superstep = step
	cs.eng.bcastBuf = cs.eng.bcastBuf[:0]
	cs.eng.sent, cs.eng.expanded = 0, 0
	cs.eng.extraIssue, cs.eng.extraLoads, cs.eng.extraStores = 0, 0, 0
	cs.active, cs.received, cs.haltDelta, cs.visitedDelta = 0, 0, 0, 0
	cs.trap = nil
}

// freeList is a run's free list of one kind of buffer: get hands back the
// last one put, or makes one (mk) when none is kept. Sweep chunks take and
// return theirs concurrently.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
	mk   func() T
}

func (p *freeList[T]) get() T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return p.mk()
}

func (p *freeList[T]) put(b T) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// gatherPool is the run's free list of adjacency buffers, each size =
// 2*MaxDegree long — one half for a decoded neighbor list, one for a pull's
// gathered values — so nothing ever has to grow one and DecodeNeighbors can
// be handed one on either graph representation (a flat graph's shared CSR
// slice comes back instead and the buffer goes unused). A sweep chunk holds
// a buffer from its first need of one until it ends, a traffic enumerator
// while it runs: at most par.Workers() are out at once, and all are back by
// the boundary.
type gatherPool = freeList[[]int64]

func newGatherPool(size int64) *gatherPool {
	return &gatherPool{mk: func() []int64 { return make([]int64, size) }}
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

// bit reads bit w of a vertex bitmap, as 0 or 1; setBit sets it.
func bit(set []uint64, w int64) int64 { return int64(set[w>>6] >> (uint64(w) & 63) & 1) }
func setBit(set []uint64, w int64)    { set[w>>6] |= 1 << (uint64(w) & 63) }

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
	if bit(ib.recv, v) == 0 {
		return nil // no stamped neighbor, or no neighbor at all
	}
	lent := cs.ctx.buf()
	half := len(lent) / 2
	nbrs := cs.eng.graph.DecodeNeighbors(v, lent[:0:half])
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
func (cs *chunkState) runVertex(p Program, v int64, step int, ib *inbox) {
	var msgs []int64
	if ib.pull {
		msgs = cs.gather(ib, v)
	} else {
		msgs = ib.slice(v)
	}
	hasMsgs, wasHalted := len(msgs) > 0, cs.halt.at(v)
	if step > 0 && !hasMsgs && wasHalted {
		return
	}
	cs.active++
	cs.received += int64(len(msgs))
	ctx := &cs.ctx
	ctx.id = v
	ctx.msgs = msgs
	ctx.halt = false
	sentBefore := cs.eng.sent + ctx.logLen()
	p.Compute(ctx)
	if !cs.seen.at(v) && (hasMsgs || cs.eng.sent+ctx.logLen() > sentBefore) {
		// A vertex is visited once it has received or sent a message — the
		// logical event the direction heuristic's unvisited-edge count
		// tracks. Single-owner write: v's word belongs to exactly this chunk.
		cs.seen.flip(v)
		cs.visitedDelta += cs.eng.graph.Degree(v)
	}
	if ctx.halt != wasHalted {
		cs.halt.flip(v)
		if ctx.halt {
			cs.haltDelta--
		} else {
			cs.haltDelta++
		}
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

	// blocks is the run's free list of log blocks (msgLog).
	blocks freeList[*msgBlock]

	// Delivery scratch (delivery.go). gather lends adjacency buffers to
	// sweep chunks and traffic enumerators; pullBnds / connected /
	// numConnected / symmetric are what a pull knows of the graph alone
	// (pullRanges, build); bcastWork / shareBnds split traffic into a
	// counting sort's shares; acc is denseFold's.
	gather       *gatherPool
	pullBnds     []int
	connected    []uint64
	numConnected int64
	symmetric    bool
	bcastWork    []int64
	shareBnds    []int
	acc          []int64

	counts   []int32 // C*n destination cursors, share-major (countingSort)
	rangeCnt []int64 // per-range counters (countingSort, pullReceivers)

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
// wired to the run's shared graph/costs/states and visited bitmap.
func (s *runScratch) ensureChunks(numChunks int, master *engineState, ds *dirState) {
	for len(s.chunks) < numChunks {
		cs := &chunkState{}
		cs.seen.set = ds.visited
		cs.eng.graph = master.graph
		cs.eng.costs = master.costs
		cs.eng.states = master.states
		cs.eng.expand = master.expand
		cs.eng.bufs = master.bufs
		cs.eng.log.blocks = &s.blocks
		cs.ctx.engine, cs.ctx.log, cs.ctx.n = &cs.eng, &cs.eng.log, master.graph.NumVertices()
		s.chunks = append(s.chunks, cs)
	}
}

// sweepBoundaries returns the compute sweep's chunk boundaries for one
// superstep: a strictly increasing []int from 0 to the number of items swept
// (n, or the sparse sweep's candidates), a pure function of the graph offsets
// and the active set — never of the worker count. The graph's vertex ranges
// split the work prefix sum (degree + sweepVertexWork per vertex) into
// sweepTargetChunks(n) near-equal chunks at multiples of 64 (wordRanges),
// once per run, and a full scan is cut at them. A sparse sweep takes the same
// ranges restricted to its ascending candidates — one binary search per range
// boundary, each resuming where the last one ended — and keeps a cut only
// once the chunk behind it holds sweepMinChunk candidates. So every sparse
// chunk but the last holds at least that many, and none is heavier than one
// full range plus its first sweepMinChunk-1 candidates, with no pass over the
// candidates at all. A sparse cut is the first candidate at or above a range
// start, so a sparse chunk owns whole bitmap words too.
func (s *runScratch) sweepBoundaries(off, candidates []int64, sparse bool) []int {
	if s.ranges == nil {
		s.ranges = []int{0} // no vertices, no chunks
		if n := len(off) - 1; n > 0 {
			s.ranges = wordRanges(nil, n, func(i int) int64 {
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
// hundred chunks; the order is irrelevant for integer sums). logged is the
// superstep's log length: its Sends, and the per-edge messages of expanded
// broadcasts. sent is the logical message count — broadcasts count one
// message per edge, exactly what per-edge expansion would have appended.
func (s *runScratch) mergeCounters(numChunks int, logged int64) (active, received, sent, unicast, extraIssue, extraLoads, extraStores, haltDelta, visitedDelta int64) {
	unicast = logged
	for _, cs := range s.chunks[:numChunks] {
		active += cs.active
		received += cs.received
		sent += cs.eng.sent
		unicast -= cs.eng.expanded
		extraIssue += cs.eng.extraIssue
		extraLoads += cs.eng.extraLoads
		extraStores += cs.eng.extraStores
		haltDelta += cs.haltDelta
		visitedDelta += cs.visitedDelta
	}
	sent += unicast
	return
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

// flatBufs is the buffer of a run sized by its message volume — the inbox
// values. It grows to the run's largest superstep and, like the log's
// blocks, is worth keeping across runs: the next Run in the process takes
// the one the last one put back, un-zeroed (every delivery writes what it
// later reads).
type flatBufs struct{ inboxVal []int64 }

// flatCache keeps the buffer between runs. A sync.Pool alone keeps a lone
// object in the per-P slot of the P that put it, where a Get on any other P
// cannot reach it, so whether a run reused the buffer or allocated a fresh
// one (51 MiB for BSP TC at scale 13) depended on which P the scheduler
// resumed it on. Here the pool only decides how long the buffer lives: it
// holds the one strong reference and drops it at the second collection
// after the last put, so an idle process gives the buffer back. A run on any
// P takes the buffer through the weak pointer.
var flatCache struct {
	mu   sync.Mutex
	last weak.Pointer[flatBufs]
	keep sync.Pool
}

// takeFlat returns the buffer the last run put back, while the pool still
// holds it, or an empty one.
func takeFlat() *flatBufs {
	flatCache.mu.Lock()
	b := flatCache.last.Value()
	flatCache.last = weak.Pointer[flatBufs]{}
	flatCache.mu.Unlock()
	if b == nil {
		b = new(flatBufs)
	}
	return b
}

// putFlat hands b to the next run. It first drops one reference the pool
// holds, so the pool does not grow with the runs between two collections.
func putFlat(b *flatBufs) {
	flatCache.keep.Get()
	flatCache.keep.Put(b)
	flatCache.mu.Lock()
	flatCache.last = weak.Make(b)
	flatCache.mu.Unlock()
}

func ensureInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// fillBcastLookaside stamps each record's value into the per-source
// lookaside the pull gather reads, after retiring the previous fill: its set
// bits say which slots to hand back to the identity, O(n/64 + its frontier).
// A source that broadcast more than once this superstep has no one value to
// stamp — its second record would be lost, or under a combiner folded out of
// send order — so the fill reports false and delivery pushes instead: a
// deterministic, input-driven fallback.
func (ib *inbox) fillBcastLookaside(bcasts []bcastRec, n int64) bool {
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
		if bit(sent, r.src) != 0 {
			return false
		}
		setBit(sent, r.src)
		look[r.src] = r.val
		ib.stamped++
	}
	return true
}

// pullRanges returns the number of vertices with a neighbor — the most a
// combining pull can deliver — counted once per run along with the bitmap of
// them (connected: the receivers of a saturated pull) and the degree-weighted
// destination ranges of pullReceivers: all depend only on the graph.
func (s *runScratch) pullRanges(t *traffic) int64 {
	if len(s.pullBnds) == 0 {
		n, goff := int(t.g.NumVertices()), t.g.Offsets()
		s.pullBnds = wordRanges(s.pullBnds, n, func(i int) int64 {
			return goff[i] + int64(i)
		})
		s.connected = make([]uint64, (n+63)/64)
		for v := 0; v < n; v++ {
			if goff[v+1] > goff[v] {
				setBit(s.connected, int64(v))
				s.numConnected++
			}
		}
	}
	return s.numConnected
}

// pullReceivers counts the vertices with at least one stamped neighbor —
// what a combining pull delivers — over the ranges of pullRanges, each walk
// exiting on its first hit, and sets their bits in recv.
func (s *runScratch) pullReceivers(t *traffic, ib *inbox) int64 {
	g, sent, recv := t.g, ib.sent, ib.recv
	s.rangeCnt = ensureInt64(s.rangeCnt, len(s.pullBnds)-1)
	rangeCnt := s.rangeCnt
	par.ForBoundaryChunks(s.pullBnds, func(r, lo, hi int) {
		var cnt int64
		for v := lo; v < hi; v++ {
			for w := range g.Adjacent(int64(v)) {
				if bit(sent, w) != 0 {
					cnt++
					setBit(recv, int64(v))
					break
				}
			}
		}
		rangeCnt[r] = cnt
	})
	return par.ExclusivePrefixSum(rangeCnt)
}

// nextWorklist builds the next superstep's sparse-activation candidate
// list — message receivers plus the live vertices still awake,
// deduplicated, in ascending vertex order — over candidates, the list the
// sweep just ran (cap n). Every vertex still awake ran in that sweep: at a
// boundary the wake set is the non-halted set.
//
// Two equivalent strategies, chosen by deterministic quantities only:
// large worklists take awakeList's dense sweep over the bitmaps (ascending
// by construction, O(n/64 + k)); small ones keep the awake candidates in
// place, add the receivers stamp-deduplicated and radix-sort, O(k).
func (s *runScratch) nextWorklist(candidates []int64, step int, live, delivered int64, t *traffic, stamp []int64, ib *inbox, halted []uint64) []int64 {
	st, n := int64(step), int64(len(stamp))
	if (delivered+live)*4 >= n || t.logical >= n {
		return s.awakeList(candidates, halted, ib.recv)
	}
	out := candidates[:0]
	for i := 0; live > 0 && i < len(candidates); i++ {
		if v := candidates[i]; bit(halted, v) == 0 {
			stamp[v] = st
			out = append(out, v)
		}
	}
	for dest := range t.all() {
		if stamp[dest] != st {
			stamp[dest] = st
			out = append(out, dest)
		}
	}
	s.sortScratch = ensureInt64(s.sortScratch, len(out))
	par.RadixSortInt64(out, s.sortScratch, n-1)
	return out
}

// awakeList is the dense worklist — every vertex awake or with mail, in
// index order, over the candidates backing array: nextWorklist's answer,
// and a resume's. It is serial: an entry costs one store, where the sweep
// that reads it pays a call per entry.
func (s *runScratch) awakeList(candidates []int64, halted, recv []uint64) []int64 {
	out := candidates[:0]
	for v := range awake(halted, recv, 0, cap(candidates)) {
		out = append(out, v)
	}
	return out
}
