package core

import (
	"weak"

	"graphxmt/internal/graph"
)

// MustCompress is graph.Compress for test graphs known to compress.
func MustCompress(g *graph.Graph) *graph.Graph {
	c, err := graph.Compress(g)
	if err != nil {
		panic(err)
	}
	return c
}

// UnitRunsPerBlock lets tests put send counts either side of a block
// boundary: the messages a log block holds when no two consecutive sends
// share a destination, each a value and a run header.
const UnitRunsPerBlock = msgBlockLen / 2

// WithExpandBroadcasts reverts SendToNeighbors to eager per-edge expansion
// (Config.expandBroadcasts): the per-edge oracle the record path must match.
func WithExpandBroadcasts(on bool) Option {
	return func(c *Config) { c.expandBroadcasts = on }
}

// NewGatherSweep is BenchmarkGather's harness: it delivers one broadcast
// per source in srcs (value source+1) as a pull boundary of a full-scan run
// under combine — twice, as a run's second such boundary, because its first
// saturated one also checks the graph's symmetry — and returns the sweep
// that follows: gather for every vertex, returning the messages obtained.
func NewGatherSweep(g *graph.Graph, combine func(a, b int64) int64, srcs []int64) func() int64 {
	n := g.NumVertices()
	s := &arena{gather: newGatherPool(2 * g.MaxDegree())}
	ib := newInbox(n, combine)
	tr := &traffic{g: g, bufs: s.gather}
	for _, src := range srcs {
		tr.bcasts = append(tr.bcasts, bcastRec{src: src, val: src + 1})
		tr.logical += g.Degree(src)
	}
	for range 2 {
		if !ib.fillBcastLookaside(tr.bcasts, n) {
			panic("NewGatherSweep: duplicate source")
		}
		s.build(path{kind: pathPull}, tr, ib, nil)
	}
	cs := &chunkState{}
	cs.eng.graph, cs.eng.bufs, cs.ctx.engine = g, s.gather, &cs.eng
	return func() int64 {
		var received int64
		for v := int64(0); v < n; v++ {
			received += int64(len(cs.gather(ib, v)))
		}
		cs.ctx.returnBuf()
		return received
	}
}

// WithLogBytes makes Run add every delivered superstep's unicast log
// footprint to *bytes and the messages it holds to *msgs.
func WithLogBytes(bytes, msgs *int64) Option {
	return func(c *Config) {
		c.logSeen = func(b, m int64) { *bytes, *msgs = *bytes+b, *msgs+m }
	}
}

// DirGamma is the frontier density at which the engine's own decision
// pulls: a pullable superstep whose frontier edges times DirGamma reach the
// graph's arcs. TestEngineMatrix pins the value and names this one when a
// decision departs from it.
const DirGamma = dirGamma

// ForceDirection forces every pullable superstep's decision
// (Config.direction): DirPush and DirPull are the oracles the engine's own
// decisions are tested against; DirAuto leaves them to the engine.
func ForceDirection(m DirectionMode) Option {
	return func(c *Config) { c.direction = m }
}

// WithMessageCap lowers the per-superstep message cap (Config.msgCap) so a
// small run can reach *MessageCapError.
func WithMessageCap(n int64) Option {
	return func(c *Config) { c.msgCap = n }
}

// DropArena empties the arena slot, so that the next Run builds a fresh
// arena.
func DropArena() {
	arenaSlot.mu.Lock()
	arenaSlot.last = weak.Pointer[arena]{}
	arenaSlot.mu.Unlock()
}

// PoisonArena overwrites, to its capacity, every buffer of the arena the
// last run put back — words with a non-zero pattern, bitmaps with every bit
// set — leaving what the arena derived from its graph alone. A run that
// read a lent buffer before writing it would read the poison. It reports
// whether the slot held an arena.
func PoisonArena() bool {
	arenaSlot.mu.Lock()
	a := arenaSlot.last.Value()
	arenaSlot.mu.Unlock()
	if a == nil {
		return false
	}
	words := [][]int64{a.ib.off, a.ib.val, a.ib.refs, a.ib.span, a.ib.look, a.candidates, a.sendOff, a.bcastWork, a.acc, a.rangeCnt, a.sortScratch}
	words = append(words, a.gather.free...)
	for _, cs := range a.chunks {
		words = append(words, cs.runs)
	}
	for _, b := range a.blocks.free {
		words = append(words, b[:])
	}
	for _, w := range words {
		poison(w, func(i int) int64 { return 0x5eedf00ddeadbeef + int64(i) })
	}
	for _, set := range [][]uint64{a.ib.own, a.ib.sent, a.halted, a.listed} {
		poison(set, func(int) uint64 { return ^uint64(0) })
	}
	poison(a.counts, func(i int) int32 { return 0x5eed + int32(i) })
	for _, b := range [][]int{a.bcastOff, a.shareBnds, a.bounds} {
		poison(b, func(i int) int { return 7 + i })
	}
	poison(a.tr.bcasts, func(i int) bcastRec { return bcastRec{src: int64(i), val: 0x5eed, seq: int64(i)} })
	for _, cs := range a.chunks {
		poison(cs.eng.bcastBuf, func(i int) bcastRec { return bcastRec{src: int64(i), val: 0x5eed, seq: int64(i)} })
	}
	return true
}

// poison sets every element of s, to its capacity, to at(i).
func poison[T any](s []T, at func(i int) T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = at(i)
	}
}
