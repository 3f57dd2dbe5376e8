package core

import (
	"slices"
	"sync"
	"weak"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

// arena is everything a run sizes by n or by its traffic, and what the
// engine derives from the graph alone. The paper's XMT engine appends every
// message into one preallocated global buffer; here one arena is lent from
// run to run (takeArena, putArena), so a process's later runs allocate none
// of it and re-hash no graph. Buffers are sized by capacity: a smaller graph
// reslices, a larger one grows.
type arena struct {
	ib         inbox    // what each boundary's delivery builds and the next sweep reads
	tr         traffic  // the superstep's outgoing unicast log and broadcast records
	halted     []uint64 // one bit per vertex
	candidates []int64  // backs the sparse-activation worklist

	chunks       []*chunkState
	chunkScratch int64               // the chunks' total buffer footprint (scratchBytes)
	sendOff      []int64             // per-chunk offsets into the superstep's unicast stream
	bcastOff     []int               // per-chunk broadcast-record offsets for the merge copy
	blocks       freeList[*msgBlock] // the log blocks (msgLog)

	// Delivery scratch (delivery.go). gather lends adjacency buffers of
	// gatherLen words to sweep chunks and traffic enumerators; bcastWork /
	// shareBnds split traffic into a counting sort's shares; acc is
	// denseFold's.
	gather    *gatherPool
	gatherLen int64
	bcastWork []int64
	shareBnds []int
	acc       []int64
	counts    []int32 // C*n destination cursors, share-major (countingSort)
	rangeCnt  []int64 // per-range counters (countingSort, pullReceivers)

	bounds      []int    // a sparse sweep's cut of ranges (sweepBoundaries)
	sortScratch []int64  // radix-sort ping buffer
	listed      []uint64 // nextWorklist's dedup bitmap, all clear between calls

	// What is derived from the graph of alone (Graph is immutable): the
	// sweep's vertex ranges (sweepBoundaries); what a pull knows of the
	// graph (pullRanges, build); the fingerprint's graphCRC (startCkpt).
	of           weak.Pointer[graph.Graph]
	ranges       []int
	pullBnds     []int
	connected    []uint64
	numConnected int64
	symmetric    bool
	crc          uint32
	crcDone      bool
}

// arenaSlot keeps the arena between runs. A sync.Pool alone keeps a lone
// object in the per-P slot of the P that put it, where a Get on any other P
// cannot reach it, so whether a run reused the arena or allocated a fresh
// one depended on which P the scheduler resumed it on. Here the pool only
// decides how long the arena lives: it holds the one strong reference and
// drops it at the second collection after the last put, so an idle process
// gives the memory back. A run on any P takes the arena through the weak
// pointer; a run that finds the slot empty, because another run holds the
// arena, builds its own.
var arenaSlot struct {
	mu   sync.Mutex
	last weak.Pointer[arena]
	keep sync.Pool
}

// takeArena lends a run of g under combine the arena the last run put back,
// while the pool still holds it, or a new one.
func takeArena(g *graph.Graph, combine func(a, b int64) int64) *arena {
	arenaSlot.mu.Lock()
	a := arenaSlot.last.Value()
	arenaSlot.last = weak.Pointer[arena]{}
	arenaSlot.mu.Unlock()
	if a == nil {
		a = &arena{gather: newGatherPool(0), blocks: freeList[*msgBlock]{mk: func() *msgBlock { return new(msgBlock) }}}
		a.tr.sends.blocks, a.ib.held.blocks = &a.blocks, &a.blocks
	}
	a.lend(g, combine)
	return a
}

// putArena hands a to the next run. It first drops one reference the pool
// holds, so the pool does not grow with the runs between two collections.
func putArena(a *arena) {
	a.unbind()
	arenaSlot.keep.Get()
	arenaSlot.keep.Put(a)
	arenaSlot.mu.Lock()
	arenaSlot.last = weak.Make(a)
	arenaSlot.mu.Unlock()
}

// lend readies a for a run of g under combine. It resets what the run reads
// before it writes: the inbox (reset), the halted set and the dedup bitmap.
// It forgets what it derived from any other graph, and grows the adjacency
// buffers to hold g's longest list twice (gatherPool).
func (a *arena) lend(g *graph.Graph, combine func(a, b int64) int64) {
	n := g.NumVertices()
	if a.of.Value() != g {
		a.of = weak.Make(g)
		a.ranges, a.pullBnds, a.symmetric, a.crcDone = a.ranges[:0], a.pullBnds[:0], false, false
	}
	if size := 2 * g.MaxDegree(); size > a.gatherLen {
		a.gather, a.gatherLen = newGatherPool(size), size
	}
	a.ib.reset(n, combine)
	a.halted, a.listed = zeroedWords(a.halted, n), a.listed[:0]
	a.tr.g, a.tr.bufs = g, a.gather
}

// unbind drops every reference the arena holds to its run — the graph, the
// combiner, the chunks' aggregators (a stale one would fold with the last
// program's reduction), the Result's states, a trapped panic — so a kept
// arena keeps no caller's array alive and reads nothing of a graph, or of a
// CSR2 mapping, closed since. The log blocks go back to the free list.
func (a *arena) unbind() {
	a.tr.sends.release()
	a.ib.held.release()
	a.tr.bcasts, a.tr.g, a.ib.combine = a.tr.bcasts[:0], nil, nil
	for _, cs := range a.chunks {
		*cs = chunkState{eng: engineState{log: cs.eng.log, bcastBuf: cs.eng.bcastBuf[:0]}, runs: cs.runs[:0], scratch: cs.scratch}
	}
}

// ensureChunks guarantees at least numChunks chunk states exist, each bound
// to the run's shared state (bind).
func (a *arena) ensureChunks(numChunks int, master *engineState) {
	for len(a.chunks) < numChunks {
		cs := &chunkState{}
		cs.eng.log.blocks = &a.blocks
		cs.bind(master)
		a.chunks = append(a.chunks, cs)
	}
}

// bind points the chunk at the run's graph, costs, states and adjacency
// buffers.
func (cs *chunkState) bind(master *engineState) {
	cs.eng.graph, cs.eng.costs, cs.eng.states = master.graph, master.costs, master.states
	cs.eng.expand, cs.eng.bufs = master.expand, master.bufs
	cs.ctx.engine, cs.ctx.log, cs.ctx.n = &cs.eng, &cs.eng.log, master.graph.NumVertices()
}

// ensureLook readies the pull lookaside on its first use in a run: every
// slot holding the identity and no bit set.
func (ib *inbox) ensureLook(n int64) {
	if !ib.looked {
		ib.look, ib.sent, ib.looked = ensureInt64(ib.look, int(n)), zeroedWords(ib.sent, n), true
		clear(ib.look)
		if id := ib.identity(); id != 0 {
			par.FillInt64(ib.look, id)
		}
	}
}

// zeroedWords returns s as a bitmap of n bits, all clear, grown if need be.
func zeroedWords(s []uint64, n int64) []uint64 {
	w := int((n + 63) / 64)
	s = slices.Grow(s[:0], w)[:w]
	clear(s)
	return s
}

func ensureInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}
