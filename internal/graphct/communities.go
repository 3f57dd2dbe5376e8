package graphct

import (
	"math"
	"slices"

	"graphxmt/internal/graph"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

// PluralityLabel picks the winning label among a vertex's neighbor labels:
// the most frequent label, keeping the current label when it ties for the
// maximum, and otherwise the tied label with the least (per-round hash,
// label) pair. A plain minimum tie-break would degenerate label
// propagation into min-label flooding (i.e. connected components) during
// the all-labels-distinct opening rounds; hashing keeps the choice
// deterministic without that bias. It counts the runs of a sorted copy of
// labels, so neither the order of labels nor any visiting order can change
// the answer. Shared by the shared-memory and BSP variants.
func PluralityLabel(labels []int64, current int64, round int) int64 {
	var buf [64]int64
	sorted := append(buf[:0], labels...)
	slices.Sort(sorted)
	var maxCount, curCount int64
	best, bestH := current, uint64(math.MaxUint64)
	for i := 0; i < len(sorted); {
		l, j := sorted[i], i+1
		for j < len(sorted) && sorted[j] == l {
			j++
		}
		c := int64(j - i)
		i = j
		if l == current {
			curCount = c
		}
		if c < maxCount {
			continue
		}
		if c > maxCount {
			maxCount, best, bestH = c, current, math.MaxUint64
		}
		if h := rng.Mix64(uint64(l) ^ uint64(round)*0x9e3779b97f4a7c15); h < bestH || h == bestH && l < best {
			best, bestH = l, h
		}
	}
	if curCount == maxCount {
		return current
	}
	return best
}

// CommunityOptions configures LabelPropagation.
type CommunityOptions struct {
	// MaxIterations bounds the sweeps; 0 selects 50.
	MaxIterations int
}

// CommunityResult is the output of LabelPropagation.
type CommunityResult struct {
	// Labels assigns each vertex a community label.
	Labels []int64
	// Communities is the number of distinct labels.
	Communities int64
	// Iterations performed.
	Iterations int
	// Converged reports whether a full sweep made no change.
	Converged bool
}

// LabelPropagation detects communities with the label propagation
// algorithm of Raghavan, Albert and Kumara, in the shared-memory style of
// the authors' "parallel community detection for massive graphs" line of
// work: every sweep each vertex adopts the label held by the plurality of
// its neighbors (PluralityLabel breaks ties, deterministically), reading
// labels in place so updates propagate within a
// sweep — the same in-iteration propagation that distinguishes the
// shared-memory connected-components kernel from its BSP counterpart.
func LabelPropagation(g *graph.Graph, opt CommunityOptions, rec *trace.Recorder) *CommunityResult {
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 50
	}
	n := g.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	res := &CommunityResult{Labels: labels}
	nbrLabels := make([]int64, 0, g.MaxDegree())
	for res.Iterations < opt.MaxIterations {
		ph := rec.StartPhase("lp/iter", res.Iterations)
		var changes int64
		for v := int64(0); v < n; v++ {
			nbr := g.Neighbors(v)
			if len(nbr) == 0 {
				continue
			}
			nbrLabels = nbrLabels[:0]
			for _, w := range nbr {
				nbrLabels = append(nbrLabels, labels[w])
			}
			best := PluralityLabel(nbrLabels, labels[v], res.Iterations)
			if best != labels[v] {
				labels[v] = best
				changes++
			}
		}
		m := g.NumEdges()
		ph.AddTasks(m, 2*m, 2*m+n, changes)
		res.Iterations++
		if changes == 0 {
			res.Converged = true
			break
		}
	}
	res.Communities = graph.CountComponents(labels)
	return res
}

// Modularity computes the Newman modularity Q of a labeling on an
// undirected graph: the fraction of edges inside communities minus the
// expectation under the configuration model. Useful for judging community
// quality across algorithms.
func Modularity(g *graph.Graph, labels []int64) float64 {
	m2 := float64(g.NumEdges()) // = 2m for undirected storage
	if m2 == 0 {
		return 0
	}
	var inside float64
	degSum := make(map[int64]float64)
	for v := int64(0); v < g.NumVertices(); v++ {
		degSum[labels[v]] += float64(g.Degree(v))
		for _, w := range g.Neighbors(v) {
			if labels[v] == labels[w] {
				inside++
			}
		}
	}
	q := inside / m2
	for _, d := range degSum {
		q -= (d / m2) * (d / m2)
	}
	return q
}
