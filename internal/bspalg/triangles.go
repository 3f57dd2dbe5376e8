package bspalg

import (
	"math/bits"
	"sync"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// TCProgram is Algorithm 3: BSP triangle counting under a total vertex
// ordering. Superstep 0: every vertex v sends its ID to each neighbor
// n > v. Superstep 1: each received ID m is retransmitted to every
// neighbor n with m < v < n — enumerating every ordered wedge (m, v, n) as
// an explicit message, the "overwhelming number of writes" the paper
// measures. Superstep 2: a vertex receiving m checks whether m is a
// neighbor; if so the wedge closes and a triangle is reported by sending m
// back to its origin. The triangle count is the number of superstep-2
// messages.
//
// The membership check is charged as what the XMT executes, a binary search
// of the full adjacency list per candidate, but it is not executed: the host
// marks the neighbours below v in an n-bit bitmap and tests each candidate
// with one bit. Superstep 1 sends destination-major, every received ID to
// one upper neighbour before the next, so each (v, n) pair writes its
// wedges to consecutive inbox slots. Delivery is stable and each sender
// sends every n the list it received, in order, so each inbox holds exactly
// the sequence Algorithm 3's message-major loop would put there — unless
// the graph keeps parallel edges: a repeated upper neighbour then receives
// its copies interleaved differently, the same multiset in another order,
// with the same count, Result and profile.
type TCProgram struct{}

// InitialState implements core.Program.
func (TCProgram) InitialState(*graph.Graph, int64) int64 { return 0 }

// Compute implements core.Program.
func (TCProgram) Compute(v *core.VertexContext) {
	switch v.Superstep() {
	case 0:
		nbr := v.Neighbors()
		v.Charge(int64(len(nbr)), int64(len(nbr)), 0)
		// Sorted adjacency: the suffix after v holds all n > v.
		for _, n := range nbr[below(nbr, v.ID()+1):] {
			v.Send(n, v.ID())
		}
	case 1:
		// Every message is an m < v: superstep 0 sends only upward.
		nbr := v.Neighbors()
		msgs := v.Messages()
		// Algorithm 3 scans the full neighbor list once per message.
		v.Charge(int64(len(msgs))*int64(len(nbr)), int64(len(msgs))*int64(len(nbr)), 0)
		for _, n := range nbr[below(nbr, v.ID()+1):] {
			for _, m := range msgs {
				v.Send(n, m)
			}
		}
	case 2:
		// Every candidate m is a wedge's low end, below v, so it closes the
		// wedge when it is one of the neighbors below v.
		nbr := v.Neighbors()
		lows := nbr[:below(nbr, v.ID())]
		msgs := v.Messages()
		searchCost := int64(bits.Len64(uint64(len(nbr))) + 1)
		v.Charge(searchCost*int64(len(msgs)), searchCost*int64(len(msgs)), 0)
		p := getMarks(v.NumVertices())
		mark := *p
		for _, u := range lows {
			mark[u>>6] |= 1 << (uint64(u) & 63)
		}
		var found int64
		for _, m := range msgs {
			if mark[m>>6]>>(uint64(m)&63)&1 != 0 {
				v.Send(m, 1)
				found++
			}
		}
		for _, u := range lows {
			mark[u>>6] = 0
		}
		markPool.Put(p)
		if found > 0 {
			v.Aggregate("triangles", found, core.Sum)
		}
	default:
		// Superstep 3: triangle notifications arrive; nothing to compute.
	}
	v.VoteToHalt()
}

// markPool holds superstep 2's bitmaps. A bitmap in the pool is all zero:
// Compute clears the words it set before putting one back.
var markPool sync.Pool

// getMarks returns a zero bitmap of at least n bits.
func getMarks(n int64) *[]uint64 {
	words := int((n + 63) >> 6)
	if p, ok := markPool.Get().(*[]uint64); ok && len(*p) >= words {
		return p
	}
	mark := make([]uint64, words)
	return &mark
}

// below returns the number of elements of the ascending list s of vertex
// IDs that are less than x >= 0. Each step adds half or nothing under the
// sign mask of s[i]-x (which cannot overflow for non-negative IDs), so the
// search has no data-dependent branch to mispredict.
func below(s []int64, x int64) int {
	if len(s) == 0 {
		return 0
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += half & int((s[base+half]-x)>>63)
		n -= half
	}
	return base + int(uint64(s[base]-x)>>63)
}

// TCResult is the output of Triangles.
type TCResult struct {
	// Count is the number of distinct triangles.
	Count int64
	// CandidateMessages is the number of wedge messages superstep 1
	// emitted — the paper's "possible triangles" (5.5 billion at their
	// scale, versus 30.9 million actual).
	CandidateMessages int64
	// TotalMessages is every message sent across all supersteps; with the
	// engine's per-message writes this is the BSP write count the paper
	// compares at 181x the shared-memory kernel's.
	TotalMessages int64
	// MessagesPerStep breaks TotalMessages down by superstep.
	MessagesPerStep []int64
	// Supersteps executed (4: three compute steps plus delivery of the
	// triangle notifications).
	Supersteps int
}

// Triangles runs Algorithm 3 through the generic engine, materializing
// every wedge message. Use StreamingTriangles for graphs whose wedge count
// exceeds memory.
func Triangles(g *graph.Graph, rec *trace.Recorder, opts ...core.Option) (*TCResult, error) {
	if !g.SortedAdjacency() {
		panic("bspalg: Triangles requires sorted adjacency")
	}
	cfg := core.Config{
		Graph:    g,
		Program:  TCProgram{},
		Recorder: rec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	return newTCResult(res), nil
}

// newTCResult reads a TCProgram run's outcome.
func newTCResult(res *core.Result) *TCResult {
	out := &TCResult{
		Count:           res.Aggregates["triangles"],
		MessagesPerStep: res.MessagesPerStep,
		Supersteps:      res.Supersteps,
	}
	if len(res.MessagesPerStep) > 1 {
		out.CandidateMessages = res.MessagesPerStep[1]
	}
	for _, m := range res.MessagesPerStep {
		out.TotalMessages += m
	}
	return out
}

// StreamingTriangles computes exactly what Triangles computes — triangle
// count, per-superstep message counts, and the work profile under the same
// cost schedule — without materializing the wedge messages. Wedges are
// generated and consumed per receiving vertex, as TCProgram's superstep 2
// tests them. This is the substitution that stands in for the paper's 1 TiB
// of XMT memory (DESIGN.md): behaviour and charged cost are identical, only
// peak host memory differs, which tests verify against the engine path.
// The graph must be undirected: on a directed graph the two count different
// directed patterns.
func StreamingTriangles(g *graph.Graph, rec *trace.Recorder) *TCResult {
	if !g.SortedAdjacency() {
		panic("bspalg: StreamingTriangles requires sorted adjacency")
	}
	costs := core.DefaultCosts()
	n := g.NumVertices()
	words := (n + 63) >> 6
	// mark holds the neighbors below the receiver under test; origin the
	// vertices a closed wedge reports back to in superstep 3.
	bitmaps := make([]uint64, 2*words)
	mark, origin := bitmaps[:words], bitmaps[words:]

	out := &TCResult{}
	var s0, scan0, s1, active1, scan1, s2, active2, searchOps int64
	var nbuf, ubuf []int64
	for r := int64(0); r < n; r++ {
		nbr := g.DecodeNeighbors(r, nbuf)
		nbuf = nbr
		deg := int64(len(nbr))
		lows := nbr[:below(nbr, r)]
		lt, gt := int64(len(lows)), deg-int64(below(nbr, r+1))

		// Superstep 0: r sends to each neighbor above it. Superstep 1: r
		// received from each neighbor below it, and retransmits each
		// message to each neighbor above.
		s0 += gt
		scan0 += deg
		if lt > 0 {
			active1++
			s1 += lt * gt
			scan1 += lt * deg
		}

		// Superstep 2: r receives the wedges (m, u, r), m < u < r, from
		// each u below it, one per neighbor m of u below u; the wedge
		// closes when m is below r too.
		for _, u := range lows {
			mark[u>>6] |= 1 << (uint64(u) & 63)
		}
		var wedges int64
		for _, u := range lows {
			un := g.DecodeNeighbors(u, ubuf)
			ubuf = un
			ulows := un[:below(un, u)]
			wedges += int64(len(ulows))
			for _, m := range ulows {
				closed := mark[m>>6] >> (uint64(m) & 63) & 1
				s2 += int64(closed)
				origin[m>>6] |= closed << (uint64(m) & 63)
			}
		}
		for _, u := range lows {
			mark[u>>6] = 0
		}
		if wedges > 0 {
			active2++
			searchOps += wedges * int64(bits.Len64(uint64(deg))+1)
		}
	}
	out.CandidateMessages = s1
	out.Count = s2

	// Superstep 3: triangle notifications delivered; receivers run and
	// halt.
	var active3 int64
	for _, w := range origin {
		active3 += int64(bits.OnesCount64(w))
	}

	// Charge superstep phases with the engine's exact structure, stopping
	// after the first superstep that sends nothing — the point where
	// core.Run detects termination (every vertex votes to halt each step).
	steps := []struct {
		active, received, sent, extra int64
	}{
		{n, 0, s0, scan0},
		{active1, s0, s1, scan1},
		{active2, s1, s2, searchOps},
		{active3, s2, 0, 0},
	}
	for i, st := range steps {
		chargeSuperstep(rec, i, costs, n, st.active, st.received, st.sent, st.extra, st.extra)
		out.MessagesPerStep = append(out.MessagesPerStep, st.sent)
		out.TotalMessages += st.sent
		out.Supersteps++
		if st.sent == 0 {
			break
		}
	}
	return out
}

// chargeSuperstep records one synthetic BSP superstep phase with the same
// cost structure core.Run charges.
func chargeSuperstep(rec *trace.Recorder, step int, costs core.CostSchedule,
	n, active, received, sent, extraIssue, extraLoads int64) {
	scan := rec.StartPhase("bsp/scan", step)
	scan.AddTasks(n, 0, costs.ScanLoadsPerVertex*n, 0)
	scan.ObserveTask(costs.ScanLoadsPerVertex)
	ph := rec.StartPhase("bsp/superstep", step)
	ph.AddTasks(active+sent,
		costs.ActiveIssuePerVertex*active+costs.RecvIssuePerMsg*received+costs.SendIssuePerMsg*sent+extraIssue,
		costs.ActiveLoadsPerVertex*active+costs.RecvLoadsPerMsg*received+costs.SendLoadsPerMsg*sent+extraLoads,
		costs.ActiveStoresPerVertex*active+costs.SendStoresPerMsg*sent)
	ph.AddHot(trace.HotMsgCounter, hotOps(costs, sent))
	ph.AddTasks(0, 0, costs.DeliverLoadsPerMsg*sent, costs.DeliverStoresPerMsg*sent)
	ph.ObserveTask(costs.ActiveIssuePerVertex + costs.ActiveLoadsPerVertex +
		costs.RecvIssuePerMsg + costs.RecvLoadsPerMsg)
}

func hotOps(c core.CostSchedule, msgs int64) int64 {
	chunk := c.HotMsgChunk
	if chunk <= 0 {
		chunk = 1
	}
	return (msgs + chunk - 1) / chunk
}
