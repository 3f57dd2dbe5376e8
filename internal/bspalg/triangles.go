package bspalg

import (
	"math/bits"
	"sort"

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
type TCProgram struct{}

// InitialState implements core.Program.
func (TCProgram) InitialState(*graph.Graph, int64) int64 { return 0 }

// Compute implements core.Program.
func (TCProgram) Compute(v *core.VertexContext) {
	switch v.Superstep() {
	case 0:
		nbr := v.Neighbors()
		// Sorted adjacency: the suffix after v holds all n > v.
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v.ID() })
		v.Charge(int64(len(nbr)), int64(len(nbr)), 0)
		for _, n := range nbr[i:] {
			v.Send(n, v.ID())
		}
	case 1:
		nbr := v.Neighbors()
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v.ID() })
		// Algorithm 3 scans the full neighbor list once per message.
		v.Charge(int64(len(v.Messages()))*int64(len(nbr)),
			int64(len(v.Messages()))*int64(len(nbr)), 0)
		for _, m := range v.Messages() {
			if m >= v.ID() {
				continue
			}
			for _, n := range nbr[i:] {
				v.Send(n, m)
			}
		}
	case 2:
		// Membership check per candidate: binary search in the sorted
		// adjacency list, charged at the full list's depth. Every
		// candidate m is a wedge's low end, below v, so the host searches
		// only the neighbors below v.
		nbr := v.Neighbors()
		lows := nbr[:below(nbr, v.ID())]
		msgs := v.Messages()
		searchCost := int64(bits.Len64(uint64(len(nbr))) + 1)
		v.Charge(searchCost*int64(len(msgs)), searchCost*int64(len(msgs)), 0)
		var found int64
		for _, m := range msgs {
			if i := below(lows, m); i < len(lows) && lows[i] == m {
				v.Send(m, 1)
				found++
			}
		}
		if found > 0 {
			v.Aggregate("triangles", found, core.Sum)
		}
	default:
		// Superstep 3: triangle notifications arrive; nothing to compute.
	}
	v.VoteToHalt()
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
	return out, nil
}

// StreamingTriangles computes exactly what Triangles computes — triangle
// count, per-superstep message counts, and the work profile under the same
// cost schedule — without materializing the wedge messages. Wedges are
// generated and consumed per middle vertex. This is the substitution that
// stands in for the paper's 1 TiB of XMT memory (DESIGN.md): behaviour and
// charged cost are identical, only peak host memory differs, which tests
// verify against the engine path on small graphs.
func StreamingTriangles(g *graph.Graph, rec *trace.Recorder) *TCResult {
	if !g.SortedAdjacency() {
		panic("bspalg: StreamingTriangles requires sorted adjacency")
	}
	costs := core.DefaultCosts()
	n := g.NumVertices()

	// Per-vertex counts of neighbors below/above the vertex ID.
	lt := make([]int64, n)
	gt := make([]int64, n)
	for v := int64(0); v < n; v++ {
		nbr := g.Neighbors(v)
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v })
		lt[v] = int64(i)
		gt[v] = int64(len(nbr) - i)
	}

	out := &TCResult{}

	// Superstep 0: v sends to each neighbor > v.
	var s0 int64
	var scan0 int64
	for v := int64(0); v < n; v++ {
		s0 += gt[v]
		scan0 += g.Degree(v)
	}

	// Superstep 1: each incoming m < v is retransmitted to each n > v.
	// Active vertices are those that received superstep-0 messages.
	var s1, active1, scan1 int64
	for v := int64(0); v < n; v++ {
		if lt[v] == 0 {
			continue
		}
		active1++
		s1 += lt[v] * gt[v]
		scan1 += lt[v] * g.Degree(v)
	}
	out.CandidateMessages = s1

	// Superstep 2: wedges (m, v, n) with m < v < n arrive at n; a triangle
	// closes when m is adjacent to n. Generate wedges per middle vertex
	// and test membership immediately instead of buffering.
	var s2, active2, searchOps int64
	seen := make([]bool, n)   // which n received anything (for active count)
	origin := make([]bool, n) // which m had a wedge close (receives in step 3)
	for v := int64(0); v < n; v++ {
		nbr := g.Neighbors(v)
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v })
		lows, highs := nbr[:i], nbr[i:]
		if len(lows) == 0 || len(highs) == 0 {
			continue
		}
		for _, nn := range highs {
			if !seen[nn] {
				seen[nn] = true
				active2++
			}
			cost := int64(bits.Len64(uint64(g.Degree(nn))) + 1)
			for _, m := range lows {
				searchOps += cost
				if g.HasEdge(nn, m) {
					s2++
					origin[m] = true
				}
			}
		}
	}
	out.Count = s2

	// Superstep 3: triangle notifications delivered; receivers run and
	// halt.
	var active3 int64
	for _, b := range origin {
		if b {
			active3++
		}
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
