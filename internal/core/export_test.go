package core

import "graphxmt/internal/graph"

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
	s := &runScratch{gather: newGatherPool(2 * g.MaxDegree())}
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
