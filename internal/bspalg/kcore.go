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
	// The latest estimate received from each neighbour: the vertex's
	// Pregel "value" beyond the int64 state slot.
	nbrCache
}

// NewKCoreProgram returns a program instance sized for g. It runs to
// convergence: the final states are the core numbers.
func NewKCoreProgram(g *graph.Graph) core.Program {
	return &kcoreProgram{newNbrCache(g, g.Degree)}
}

// InitialState implements core.Program: the initial estimate is the degree.
func (p *kcoreProgram) InitialState(g *graph.Graph, v int64) int64 {
	return g.Degree(v)
}

// Compute implements core.Program.
func (p *kcoreProgram) Compute(v *core.VertexContext) {
	nbr := v.Neighbors()
	cache := p.of(v.ID())
	for _, m := range v.Messages() {
		sender := m >> 32
		est := m & 0xffffffff
		// Locate the sender in the sorted adjacency list.
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= sender })
		if i < len(nbr) && nbr[i] == sender {
			cache[i] = est
		}
		v.Charge(4, 4, 1)
	}
	est := hIndex(cache, int64(len(nbr)))
	v.Charge(int64(len(cache)), int64(len(cache)), 0)
	changed := est < v.State() || v.Superstep() == 0
	if est < v.State() {
		v.SetState(est)
	}
	if changed {
		msg := v.ID()<<32 | est
		v.SendToNeighbors(msg)
	}
	v.VoteToHalt()
}

// hIndex computes max k <= cap such that at least k values are >= k, via a
// counting pass (O(d) time, O(1) extra beyond the counter array).
func hIndex(values []int64, maxK int64) int64 {
	if maxK == 0 {
		return 0
	}
	counts := make([]int64, maxK+1)
	for _, x := range values {
		if x > maxK {
			x = maxK
		}
		if x > 0 {
			counts[x]++
		}
	}
	var cum int64
	for k := maxK; k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return k
		}
	}
	return 0
}

// nbrCache holds a value per adjacency entry: vertex v's entries,
// vals[off[v]:off[v+1]], are the latest values received from its
// neighbours in adjacency order. A program that embeds it keeps the cache
// as its aux state (core.AuxProgram), so checkpoints and superstep retries
// carry it.
type nbrCache struct{ off, vals []int64 }

// newNbrCache starts every vertex's entry for neighbour w at init(w).
func newNbrCache(g *graph.Graph, init func(w int64) int64) nbrCache {
	c := nbrCache{off: g.Offsets(), vals: make([]int64, 0, g.NumEdges())}
	for v := range g.NumVertices() {
		for _, w := range g.Neighbors(v) {
			c.vals = append(c.vals, init(w))
		}
	}
	return c
}

// of returns vertex v's entries.
func (c nbrCache) of(v int64) []int64 { return c.vals[c.off[v]:c.off[v+1]] }

// AuxState implements core.AuxProgram.
func (c nbrCache) AuxState() []int64 { return c.vals }
