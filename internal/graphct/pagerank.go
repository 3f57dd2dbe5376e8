package graphct

import (
	"math"

	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// PageRankOptions configures PageRank.
type PageRankOptions struct {
	// Damping is the damping factor; 0 selects the customary 0.85.
	Damping float64
	// Tolerance is the L1 convergence threshold; 0 selects 1e-8.
	Tolerance float64
	// MaxIterations bounds the power iteration; 0 selects 100.
	MaxIterations int
}

// PageRankResult is the output of PageRank.
type PageRankResult struct {
	// Rank holds the stationary probability of each vertex; sums to 1.
	Rank []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Converged reports whether an iteration's L1 change fell to Tolerance
	// within MaxIterations.
	Converged bool
}

// PageRank runs the classical power iteration over the graph, treating
// each stored entry as an out-edge: the standard symmetric formulation.
// Vertices without out-edges distribute their rank uniformly (the
// dangling-node correction).
func PageRank(g *graph.Graph, opt PageRankOptions, rec *trace.Recorder) *PageRankResult {
	if opt.Damping == 0 {
		opt.Damping = 0.85
	}
	if opt.Tolerance == 0 {
		opt.Tolerance = 1e-8
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 100
	}
	n := g.NumVertices()
	res := &PageRankResult{}
	if n == 0 {
		return res
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	d := opt.Damping
	for res.Iterations < opt.MaxIterations {
		ph := rec.StartPhase("pagerank/iter", res.Iterations)
		var dangling float64
		for v := int64(0); v < n; v++ {
			if g.Degree(v) == 0 {
				dangling += rank[v]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for i := range next {
			next[i] = base
		}
		for v := int64(0); v < n; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			share := d * rank[v] / float64(deg)
			for _, w := range g.Neighbors(v) {
				next[w] += share
			}
		}
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		res.Iterations++
		m := g.NumEdges()
		// Scatter loop: read rank + degree per vertex, read adjacency +
		// read-modify-write target per edge.
		ph.AddTasks(m, 2*m, 2*m+2*n, m+n)
		ph.ObserveTask(5)
		if delta <= opt.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Rank = rank
	return res
}
