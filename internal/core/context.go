package core

import (
	"fmt"

	"graphxmt/internal/graph"
)

// msgBlockLen is the size, in 8-byte slots, of one block of the unicast log
// (64 KiB): the free list and the segment list are touched once per block, and
// the partial block a sweep chunk ends on wastes little
// (docs/PERFORMANCE.md §12 has the measured alternatives).
const msgBlockLen = 1 << 13

// A run header is one slot: the destination above runLenBits, the run's
// length below. A block holds at most msgBlockLen-1 values, so the length
// fits in 13 bits, and any destination below 2^50 above them.
const (
	runLenBits = 13
	runLenMask = 1<<runLenBits - 1
)

// msgBlock is one block of the unicast log: values from the front, one
// header per run of consecutive sends to the same destination from the
// back, full when they meet. A run never spans two blocks. Blocks are
// recycled through the arena's free list (arena.blocks), which every
// superstep's release refills exactly, so unicast traffic is written into
// memory neither allocated nor zeroed again, within a run or across runs.
type msgBlock [msgBlockLen]int64

// logSeg is a sealed block: nval values, and the headers of the nrun runs
// that hold them, the first run's in the block's last slot.
type logSeg struct {
	blk        *msgBlock
	nval, nrun int32
}

// hdrs is the segment's run headers, last run first; vals its values.
func (s logSeg) hdrs() []int64 { return s.blk[msgBlockLen-s.nrun:] }
func (s logSeg) vals() []int64 { return s.blk[:s.nval] }

// msgLog is a stream of unicast messages in send order, written once by
// Send and read in place by every boundary consumer: segs are blocks from
// blocks, the run's free list, sealed counts the values in segs. The block
// being filled, blk, is not yet in segs: vals is its values, capped at lim,
// the slot reserved for the open run's header — so that a send with room is
// an append; the closed runs' headers fill the slots above lim, and the open
// run, to dest, began at start. A chunk's log is spliced into the
// superstep's by pointer (spliceSends), never copied.
type msgLog struct {
	segs   []logSeg
	sealed int64
	blocks *freeList[*msgBlock]

	blk        *msgBlock
	vals       []int64
	dest       int64
	start, lim int
}

// add appends one message. VertexContext.Send is the same over the open run
// it holds, and openRun the same slow path.
func (l *msgLog) add(dest, value int64) {
	if dest != l.dest || len(l.vals) == cap(l.vals) {
		l.closeRun(len(l.vals), l.dest)
		if len(l.vals) >= l.lim {
			l.vals = l.fresh(l.vals)
		}
		l.vals, l.dest = l.vals[:len(l.vals):l.lim], dest
	}
	l.vals = append(l.vals, value)
}

// closeRun writes the header of the run to dest that ends at value
// position end, if it holds a value, into its slot, and reserves the next:
// the next run starts at end. (A fresh block's first run starts at 0.)
func (l *msgLog) closeRun(end int, dest int64) {
	if n := end - l.start; n > 0 {
		l.blk[l.lim] = dest<<runLenBits | int64(n)
		l.lim--
		l.start = end
	}
}

// fresh seals the block run fills and returns an empty one. A run opens
// where the block has a slot for its value below lim, the slot for its
// header: nowhere without a block, where lim is 0.
func (l *msgLog) fresh(run []int64) []int64 {
	l.vals = run
	l.seal()
	l.blk, l.lim = l.blocks.get(), msgBlockLen-1
	return l.blk[:0]
}

// seal moves the block being filled into segs; readers see only sealed
// messages.
func (l *msgLog) seal() {
	if l.blk != nil {
		l.closeRun(len(l.vals), l.dest)
		l.segs = append(l.segs, logSeg{blk: l.blk, nval: int32(len(l.vals)), nrun: int32(msgBlockLen - 1 - l.lim)})
		l.sealed += int64(len(l.vals))
		l.blk, l.vals, l.start, l.lim = nil, nil, 0, 0
	}
}

// release returns every block to the free list and empties the log.
func (l *msgLog) release() {
	l.seal()
	for i, seg := range l.segs {
		l.blocks.put(seg.blk)
		l.segs[i] = logSeg{}
	}
	l.segs, l.sealed = l.segs[:0], 0
}

// bytes is the log's footprint in slots used, values and run headers.
func (l *msgLog) bytes() int64 {
	b := l.sealed + int64(len(l.vals)) + l.runs()
	if l.blk != nil {
		b += int64(msgBlockLen - 1 - l.lim)
	}
	return 8 * b
}

// runs is the number of runs in the sealed segments.
func (l *msgLog) runs() (k int64) {
	for _, s := range l.segs {
		k += int64(s.nrun)
	}
	return k
}

// run is the run a groupRuns reference names, read in place.
func (l *msgLog) run(ref int64) []int64 {
	lo, hi := ref>>runLenBits&runLenMask, ref>>runLenBits&runLenMask+ref&runLenMask
	return l.segs[ref>>(2*runLenBits)].blk[lo:hi:hi]
}

// bcastRec is one recorded broadcast: SendToNeighbors stores a single
// (source, value) record instead of materializing one message per edge.
// seq is the number of unicast messages in the same log at record time —
// the record's position in the interleaved send stream — so traffic.all
// reads the exact per-edge send order when a superstep mixes Send and
// SendToNeighbors. Within one log seq is non-decreasing by construction
// (vertices run in ascending order and the log only grows).
type bcastRec struct {
	src, val, seq int64
}

// engineState is the per-run state shared by all VertexContext calls.
type engineState struct {
	graph     *graph.Graph
	costs     CostSchedule
	states    []int64
	superstep int
	log       msgLog
	// bcastBuf collects SendToNeighbors records in call order (ascending
	// source vertex within a chunk). sent counts the broadcasts' logical
	// messages — one per edge — and expanded those of them the tests'
	// per-edge expansion appended to the log. Send counts nothing: a
	// superstep's unicast count is its log's length less expanded
	// (mergeCounters), so counters, charges and budgets see exactly the
	// traffic the per-edge expansion would have produced, and the direction
	// heuristic reads the same unicast count under either treatment.
	bcastBuf       []bcastRec
	sent, expanded int64
	// expand reverts SendToNeighbors to eager per-edge expansion
	// (Config.expandBroadcasts), the tests' per-edge oracle.
	expand bool
	// bufs is the run's pool of adjacency buffers (VertexContext.buf).
	bufs       *gatherPool
	aggregates map[string]*aggregator
	// lastAgg caches the aggregator the last Aggregate call resolved, so a
	// program folding into one name skips the map on every call but the first.
	lastAggName string
	lastAgg     *aggregator

	// extra* accumulate Charge calls within one superstep.
	extraIssue, extraLoads, extraStores int64
}

type aggregator struct {
	value  int64
	reduce func(a, b int64) int64
	seeded bool
}

// VertexContext is the view a vertex program gets of one vertex during one
// superstep: its identity, state, incoming messages, and the operations the
// BSP model permits (local computation, sending, voting to halt).
type VertexContext struct {
	// run and runDest are the chunk log's open run — its values so far in
	// the block being filled, capped at the run's header slot, and their
	// destination — held here while the chunk runs (attach to detach) so
	// that Send inlines: a send that continues the run is one append.
	run     []int64
	runDest int64
	// log is the log the chunk appends to: its engine's, or under the
	// serial sweep the superstep's, threaded through every chunk.
	log    *msgLog
	engine *engineState
	// n is the graph's vertex count, the bound openRun checks.
	n    int64
	id   int64
	msgs []int64
	halt bool
	// nbrBuf is the adjacency buffer of the sweep chunk this context runs,
	// on loan from the run's gatherPool from the chunk's first need of one
	// (buf) until the chunk ends (returnBuf); nil in between.
	nbrBuf []int64
}

// buf returns the chunk's adjacency buffer, borrowing it on first use.
func (v *VertexContext) buf() []int64 {
	if v.nbrBuf == nil {
		v.nbrBuf = v.engine.bufs.get()
	}
	return v.nbrBuf
}

// attach loads the chunk log's open run; detach, deferred, stores it back
// and returns the adjacency buffer.
func (v *VertexContext) attach() {
	v.run, v.runDest = v.log.vals, v.log.dest
}

func (v *VertexContext) detach() {
	v.log.vals, v.log.dest, v.run = v.run, v.runDest, nil
	v.returnBuf()
}

// logLen is the length of the chunk's log, open run included.
func (v *VertexContext) logLen() int64 {
	return v.log.sealed + int64(len(v.run))
}

// returnBuf hands the chunk's adjacency buffer, if it took one, back.
func (v *VertexContext) returnBuf() {
	if v.nbrBuf != nil {
		v.engine.bufs.put(v.nbrBuf)
		v.nbrBuf = nil
	}
}

// ID returns the vertex's identifier.
func (v *VertexContext) ID() int64 { return v.id }

// Superstep returns the current superstep number, starting at 0.
func (v *VertexContext) Superstep() int { return v.engine.superstep }

// State returns the vertex's current state.
func (v *VertexContext) State() int64 { return v.engine.states[v.id] }

// SetState replaces the vertex's state.
func (v *VertexContext) SetState(s int64) { v.engine.states[v.id] = s }

// Messages returns the messages received this superstep (sent during the
// previous superstep). The slice is read-only and valid only within
// Compute.
func (v *VertexContext) Messages() []int64 { return v.msgs }

// Degree returns the vertex's out-degree.
func (v *VertexContext) Degree() int64 { return v.engine.graph.Degree(v.id) }

// Neighbors returns the vertex's adjacency list ("the vertex implicitly
// knows its neighbors"). Read-only, and valid only within Compute: on
// compressed graphs the slice is a decode buffer reused for the next
// vertex (its first half; Messages() after a pull may sit in the second).
func (v *VertexContext) Neighbors() []int64 {
	return v.engine.graph.DecodeNeighbors(v.id, v.buf())
}

// NeighborWeights returns the edge weights parallel to Neighbors. It
// panics on unweighted graphs, like graph.Graph.NeighborWeights.
func (v *VertexContext) NeighborWeights() []int64 {
	return v.engine.graph.NeighborWeights(v.id)
}

// Charge records algorithm-specific work beyond the engine's fixed
// per-vertex and per-message costs — e.g. the adjacency scans of the
// triangle counting program. The charges are added to the current
// superstep's phase.
func (v *VertexContext) Charge(issue, loads, stores int64) {
	v.engine.extraIssue += issue
	v.engine.extraLoads += loads
	v.engine.extraStores += stores
}

// NumVertices returns the graph's vertex count.
func (v *VertexContext) NumVertices() int64 { return v.engine.graph.NumVertices() }

// Send sends value to vertex dest, to be received next superstep. A vertex
// may send to any vertex it can identify, not only neighbors; a dest outside
// [0, NumVertices()) panics, so Run returns a *ProgramError naming the
// sender.
func (v *VertexContext) Send(dest, value int64) {
	if dest != v.runDest || len(v.run) == cap(v.run) {
		v.openRun(dest)
	}
	v.run = append(v.run, value)
}

// openRun is Send's slow path: the send starts a run, so it is where the
// destination is checked — once per run, not once per message.
//
//go:noinline
func (v *VertexContext) openRun(dest int64) {
	if uint64(dest) >= uint64(v.n) {
		panic(fmt.Sprintf("core: Send to vertex %d, outside [0, %d)", dest, v.n))
	}
	l := v.log
	l.closeRun(len(v.run), v.runDest)
	if len(v.run) >= l.lim {
		v.run = l.fresh(v.run)
	}
	v.run, v.runDest = v.run[:len(v.run):l.lim], dest
}

// SendToNeighbors sends value to every neighbor. Logically this is one
// message per edge (and it is counted and charged as such), but the engine
// records a single broadcast record and expands it at delivery — directly
// into the inbox — so the physical traffic of a flood superstep is
// O(frontier), not O(edges incident on the frontier). The received message
// sequences, and every combiner's fold of them, are identical to per-edge
// expansion (see deliver).
func (v *VertexContext) SendToNeighbors(value int64) {
	e := v.engine
	deg := e.graph.Degree(v.id)
	if e.expand {
		// Per-edge messages still count as broadcast traffic, not unicast —
		// expanded keeps them out of the unicast count (and therefore the
		// direction decision), identical under both treatments.
		l := v.log
		l.vals, l.dest = v.run, v.runDest
		for _, w := range v.Neighbors() {
			l.add(w, value)
		}
		v.run, v.runDest = l.vals, l.dest
		e.sent += deg
		e.expanded += deg
		return
	}
	if deg == 0 {
		return
	}
	e.bcastBuf = append(e.bcastBuf, bcastRec{src: v.id, val: value, seq: v.logLen()})
	e.sent += deg
}

// VoteToHalt marks the vertex inactive; it will not run again until a
// message arrives for it.
func (v *VertexContext) VoteToHalt() { v.halt = true }

// Aggregate folds value into the named global aggregator with the given
// reduction (registered on first use; subsequent calls must pass the same
// semantic reduction). Aggregator values are visible in Result.Aggregates
// after the run. Sum, Min and Max are provided as package helpers.
func (v *VertexContext) Aggregate(name string, value int64, reduce func(a, b int64) int64) {
	e := v.engine
	agg := e.lastAgg
	if agg == nil || e.lastAggName != name {
		if e.aggregates == nil {
			e.aggregates = map[string]*aggregator{}
		}
		var ok bool
		if agg, ok = e.aggregates[name]; !ok {
			agg = &aggregator{reduce: reduce}
			e.aggregates[name] = agg
		}
		e.lastAggName, e.lastAgg = name, agg
	}
	if !agg.seeded {
		agg.value = value
		agg.seeded = true
		return
	}
	agg.value = agg.reduce(agg.value, value)
}

// Sum is an aggregator reduction.
func Sum(a, b int64) int64 { return a + b }

// Min is an aggregator reduction (and the natural combiner for label
// propagation algorithms).
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
