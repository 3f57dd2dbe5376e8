package core

import (
	"sync"

	"graphxmt/internal/graph"
)

// msgBlockLen is the size, in messages, of one block of the unicast log
// (64 KiB): the pool and the segment list are touched once per 4 Ki sends,
// and the partial block a sweep chunk ends on wastes little
// (docs/PERFORMANCE.md §12 has the measured alternatives).
const msgBlockLen = 1 << 12

// blockPool recycles log blocks across supersteps and across runs, so
// unicast traffic is written into memory neither allocated nor zeroed
// again; a sync.Pool, so an idle process gives it all back.
var blockPool = sync.Pool{New: func() any { return new([msgBlockLen]Message) }}

// msgLog is a run of unicast messages in send order, written once by Send
// and read in place by every boundary consumer: segs are blocks from
// blockPool, each filled from its start; tail is the block being filled,
// not yet in segs; sealed counts the messages in segs. A chunk's log is
// spliced into the superstep's by pointer (spliceSends), never copied.
type msgLog struct {
	segs   [][]Message
	tail   []Message
	sealed int64
}

// len is the number of messages logged so far.
func (l *msgLog) len() int64 { return l.sealed + int64(len(l.tail)) }

// add appends one message.
func (l *msgLog) add(dest, value int64) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, Message{Dest: dest, Value: value})
}

// grow seals the tail and starts a fresh block.
func (l *msgLog) grow() {
	l.seal()
	l.tail = blockPool.Get().(*[msgBlockLen]Message)[:0]
}

// seal moves the tail into segs; readers see only sealed messages.
func (l *msgLog) seal() {
	if l.tail != nil {
		l.segs = append(l.segs, l.tail)
		l.sealed += int64(len(l.tail))
		l.tail = nil
	}
}

// release returns every block to the pool and empties the log.
func (l *msgLog) release() {
	l.seal()
	for i, seg := range l.segs {
		blockPool.Put((*[msgBlockLen]Message)(seg[:msgBlockLen]))
		l.segs[i] = nil
	}
	l.segs, l.sealed = l.segs[:0], 0
}

// bcastRec is one recorded broadcast: SendToNeighbors stores a single
// (source, value) record instead of materializing one Message per edge.
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
	// source vertex within a chunk). sent counts logical messages — one per
	// edge for a broadcast — so counters, charges, and budgets see exactly
	// the traffic the per-edge expansion would have produced.
	bcastBuf []bcastRec
	sent     int64
	// unicast counts Send calls only (never SendToNeighbors, under either
	// broadcast treatment), so sent-unicast is the frontier's
	// broadcast-incident-edge count the direction heuristic reads — a
	// logical quantity identical across treatments and worker counts.
	unicast int64
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
	// prevAggregates snapshots the aggregators as of the end of the
	// previous superstep (Pregel semantics: a value aggregated in
	// superstep s is visible to every vertex in superstep s+1).
	prevAggregates map[string]int64

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
	engine *engineState
	id     int64
	msgs   []int64
	halt   bool
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

// HasNeighbor reports whether w is adjacent to this vertex (binary search
// on sorted graphs). The membership loads it implies must be charged via
// Charge by programs that care about fidelity.
func (v *VertexContext) HasNeighbor(w int64) bool {
	return v.engine.graph.HasEdge(v.id, w)
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
// may send to any vertex it can identify, not only neighbors.
func (v *VertexContext) Send(dest, value int64) {
	e := v.engine
	e.log.add(dest, value)
	e.sent++
	e.unicast++
}

// SendToNeighbors sends value to every neighbor. Logically this is one
// message per edge (and it is counted and charged as such), but the engine
// records a single broadcast record and expands it at delivery — directly
// into the inbox — so the physical traffic of a flood superstep is
// O(frontier), not O(edges incident on the frontier). The received message
// sequences are identical to per-edge expansion (see deliver for where
// combiner associativity is leaned on).
func (v *VertexContext) SendToNeighbors(value int64) {
	e := v.engine
	if e.expand {
		// Per-edge messages still count as broadcast traffic, not unicast —
		// appended directly so the unicast counter (and therefore the
		// direction decision) is identical under both treatments.
		for _, w := range v.Neighbors() {
			e.log.add(w, value)
		}
		e.sent += e.graph.Degree(v.id)
		return
	}
	deg := e.graph.Degree(v.id)
	if deg == 0 {
		return
	}
	e.bcastBuf = append(e.bcastBuf, bcastRec{src: v.id, val: value, seq: e.log.len()})
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

// PreviousAggregate returns the value the named aggregator held at the end
// of the previous superstep (Pregel's aggregator visibility rule), and
// whether it existed. During superstep 0 nothing is visible.
func (v *VertexContext) PreviousAggregate(name string) (int64, bool) {
	val, ok := v.engine.prevAggregates[name]
	return val, ok
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

// Max is an aggregator reduction.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
