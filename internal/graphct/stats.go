package graphct

import (
	"math"
	"sort"

	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// DegreeStats summarizes a graph's degree distribution; GraphCT exposes the
// same summary as a workflow utility.
type DegreeStats struct {
	Min, Max  int64
	Mean      float64
	Median    int64
	P99       int64
	Isolated  int64 // vertices of degree 0
	GiniIndex float64
}

// Degrees computes degree distribution statistics. The Gini index measures
// skew (0 = all equal, ->1 = extreme concentration), a compact signal of
// the scale-free property the paper's background section discusses.
func Degrees(g *graph.Graph, rec *trace.Recorder) DegreeStats {
	n := g.NumVertices()
	ph := rec.StartPhase("stats/degrees", 0)
	ph.AddTasks(n, n, n, 0)
	var s DegreeStats
	if n == 0 {
		return s
	}
	degs := make([]int64, n)
	var sum float64
	s.Min = math.MaxInt64
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		degs[v] = d
		sum += float64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.Mean = sum / float64(n)
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	s.Median = degs[n/2]
	s.P99 = degs[min64(n-1, n*99/100)]
	if sum > 0 {
		// Gini over the sorted degree sequence.
		var cum float64
		for i, d := range degs {
			cum += float64(d) * float64(2*(i+1)-int(n)-1)
		}
		s.GiniIndex = cum / (float64(n) * sum)
	}
	return s
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ComponentSizes returns the size of each component given a labeling, as a
// map label -> size, plus the size of the largest component.
func ComponentSizes(labels []int64) (map[int64]int64, int64) {
	sizes := make(map[int64]int64)
	for _, l := range labels {
		sizes[l]++
	}
	var max int64
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return sizes, max
}

// Assortativity computes the degree assortativity coefficient (Newman's
// Pearson correlation of degrees across edges): positive when high-degree
// vertices attach to high-degree vertices, negative when hubs attach to
// leaves. Scale-free graphs like RMAT are typically disassortative, a
// property the paper's background section's "skewed degree distribution"
// discussion implies. Returns 0 for graphs with fewer than 2 edges or no
// degree variance.
func Assortativity(g *graph.Graph, rec *trace.Recorder) float64 {
	m := g.NumEdges()
	ph := rec.StartPhase("stats/assortativity", 0)
	ph.AddTasks(m, m, 2*m, 0)
	if m < 2 {
		return 0
	}
	// Pearson correlation over directed entries (each undirected edge
	// contributes both orientations, the standard convention).
	var sx, sy, sxx, syy, sxy float64
	for v := int64(0); v < g.NumVertices(); v++ {
		dv := float64(g.Degree(v))
		for _, w := range g.Neighbors(v) {
			dw := float64(g.Degree(w))
			sx += dv
			sy += dw
			sxx += dv * dv
			syy += dw * dw
			sxy += dv * dw
		}
	}
	n := float64(m)
	cov := sxy/n - (sx/n)*(sy/n)
	varx := sxx/n - (sx/n)*(sx/n)
	vary := syy/n - (sy/n)*(sy/n)
	if varx <= 0 || vary <= 0 {
		return 0
	}
	return cov / math.Sqrt(varx*vary)
}
