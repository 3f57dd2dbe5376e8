package bspalg

import (
	"sort"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
)

// kcoreProgram is the distributed k-core decomposition of Montresor, De
// Pellegrini and Miorandi expressed as a vertex program — the natural BSP
// formulation of GraphCT's peeling kernel. Every vertex maintains a
// coreness estimate, initially its degree, and a cache of its neighbors'
// latest estimates. On each superstep a vertex whose estimate changed
// broadcasts it; receivers update their caches and recompute the h-index
// operator
//
//	est(v) = max k such that at least k cached neighbor estimates are >= k
//
// (clamped by degree). Estimates only decrease, so the computation
// converges to the exact core numbers.
//
// Messages encode (sender, estimate) as sender<<32 | estimate, which bounds
// the program to graphs with fewer than 2^31 vertices and degrees — far
// beyond anything this repository simulates.
type kcoreProgram struct {
	// cache[v][i] is the latest estimate received from Neighbors(v)[i].
	// This is the vertex's Pregel "value" beyond the int64 state slot.
	cache [][]int32
}

// NewKCoreProgram returns a program instance sized for g. It runs to
// convergence: the final states are the core numbers.
func NewKCoreProgram(g *graph.Graph) core.Program {
	n := g.NumVertices()
	p := &kcoreProgram{cache: make([][]int32, n)}
	for v := int64(0); v < n; v++ {
		nbr := g.Neighbors(v)
		c := make([]int32, len(nbr))
		for i, w := range nbr {
			c[i] = int32(g.Degree(w))
		}
		p.cache[v] = c
	}
	return p
}

// InitialState implements core.Program: the initial estimate is the degree.
func (p *kcoreProgram) InitialState(g *graph.Graph, v int64) int64 {
	return g.Degree(v)
}

// Compute implements core.Program.
func (p *kcoreProgram) Compute(v *core.VertexContext) {
	nbr := v.Neighbors()
	cache := p.cache[v.ID()]
	for _, m := range v.Messages() {
		sender := m >> 32
		est := int32(m & 0xffffffff)
		// Locate the sender in the sorted adjacency list.
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= sender })
		if i < len(nbr) && nbr[i] == sender {
			cache[i] = est
		}
		v.Charge(4, 4, 1)
	}
	est := hIndex(cache, int32(len(nbr)))
	v.Charge(int64(len(cache)), int64(len(cache)), 0)
	changed := int64(est) < v.State() || v.Superstep() == 0
	if int64(est) < v.State() {
		v.SetState(int64(est))
	}
	if changed {
		msg := v.ID()<<32 | int64(est)
		v.SendToNeighbors(msg)
	}
	v.VoteToHalt()
}

// hIndex computes max k <= cap such that at least k values are >= k, via a
// counting pass (O(d) time, O(1) extra beyond the counter array).
func hIndex(values []int32, maxK int32) int32 {
	if maxK == 0 {
		return 0
	}
	counts := make([]int32, maxK+1)
	for _, x := range values {
		if x > maxK {
			x = maxK
		}
		if x > 0 {
			counts[x]++
		}
	}
	var cum int32
	for k := maxK; k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return k
		}
	}
	return 0
}
