package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"graphxmt/internal/par"
)

// BuildOptions controls edge-list to CSR conversion.
type BuildOptions struct {
	// SortAdjacency is ignored: every Graph has ascending adjacency lists.
	//
	// Deprecated: leave it unset; it stays so callers that name it compile.
	SortAdjacency bool
	// Weights optionally supplies one weight per input edge (parallel to
	// the edge slice). Nil builds an unweighted graph. Duplicate collapse
	// keeps the minimum weight of a duplicate group.
	Weights []int64
}

// Build converts an edge list into a CSR Graph over vertices [0, n): each
// edge is stored in both directions, self-loops are dropped and parallel
// edges collapse to one, as the Graph500 reference does before kernel
// timing. Edges referencing vertices outside [0, n) are rejected.
//
// The construction never sorts the edge list: it counts out-degrees,
// prefix-sums them into row offsets, scatters every arc into its source
// vertex's bucket of the adjacency array, and then sorts and dedups each
// bucket on its own, in parallel. A bucket is sorted on its full key —
// neighbour, then weight — so entries that compare equal are identical and
// the order the scatter filled a bucket in cannot reach the result: the CSR
// is the same at any worker count.
func Build(n int64, edges []Edge, opt BuildOptions) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if opt.Weights != nil && len(opt.Weights) != len(edges) {
		return nil, fmt.Errorf("graph: %d weights for %d edges", len(opt.Weights), len(edges))
	}
	if i := firstOutOfRange(n, edges); i >= 0 {
		e := edges[i]
		return nil, fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
	}

	// Edge i contributes the arcs U->V and V->U; a self-loop contributes
	// nothing. Count out-degrees, then turn them into row offsets.
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V {
			offsets[e.U]++
			offsets[e.V]++
		}
	}
	total := par.ExclusivePrefixSum(offsets)

	// Scatter every arc into its source's bucket; cursor[u] is the next free
	// slot of u's bucket. Counting and scattering are plain sequential passes
	// on purpose: the scattered stores are the whole cost, and plain stores
	// overlap their cache misses where a fetch-add cursor fences each one
	// behind the last (docs/PERFORMANCE.md §10).
	adj := make([]int64, total)
	var weights []int64
	if opt.Weights != nil {
		weights = make([]int64, total)
	}
	cursor := make([]int64, n)
	copy(cursor, offsets)
	place := func(u, v int64, i int) {
		pos := cursor[u]
		cursor[u]++
		adj[pos] = v
		if weights != nil {
			weights[pos] = opt.Weights[i]
		}
	}
	for i, e := range edges {
		if e.U != e.V {
			place(e.U, e.V, i)
			place(e.V, e.U, i)
		}
	}

	// Sort and dedup each bucket; cursor is done and becomes the per-vertex
	// count of entries that survive duplicate collapse.
	sortBuckets(offsets, adj, weights, cursor)
	offsets, adj, weights = compactBuckets(offsets, adj, weights, cursor)

	g := &Graph{n: n, offsets: offsets, adj: adj, weights: weights}
	g.computeMaxDegree()
	return g, nil
}

// firstOutOfRange returns the lowest index of an edge with an endpoint
// outside [0, n), or -1 when every edge is in range.
func firstOutOfRange(n int64, edges []Edge) int {
	var mu sync.Mutex
	first := -1
	par.ForChunked(len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if e := edges[i]; e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				mu.Lock()
				if first < 0 || i < first {
					first = i
				}
				mu.Unlock()
				return
			}
		}
	})
	return first
}

// MustBuild is Build but panics on error; convenient in tests and examples
// with known-good inputs.
func MustBuild(n int64, edges []Edge, opt BuildOptions) *Graph {
	g, err := Build(n, edges, opt)
	if err != nil {
		panic(err)
	}
	return g
}

// FromCSR constructs a Graph directly from CSR arrays, taking ownership of
// the slices. It validates the structure: an adjacency list that is not
// strictly ascending or that holds its own vertex is an *AdjacencyError,
// and the lists must be symmetric.
func FromCSR(n int64, offsets, adj []int64, weights []int64) (*Graph, error) {
	g := &Graph{n: n, offsets: offsets, adj: adj, weights: weights}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.computeMaxDegree()
	return g, nil
}

// arc is one adjacency entry with its weight: the unit the weighted bucket
// sort moves.
type arc struct{ v, w int64 }

func compareArcs(a, b arc) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.w, b.w)
}

// bucketChunksPerWorker oversubscribes sortBuckets' degree-balanced chunks
// so a chunk that holds a hub's bucket does not leave the other workers
// idle for long.
const bucketChunksPerWorker = 8

// radixMinBucket is the bucket length from which the byte-radix sort
// (3-5 linear passes with a 256-entry histogram each, for n up to 2^40)
// beats slices.Sort's pdqsort; on a scale-18 RMAT, where most arcs sit in
// hub buckets, sending those through it halves the sort (PERFORMANCE.md §10).
const radixMinBucket = 256

// sortBuckets sorts every vertex's bucket adj[offsets[v]:offsets[v+1]]
// ascending — by (neighbour, weight) when weights != nil, the weights
// moving with their neighbours — then collapses each run of equal
// neighbours to its first entry (the minimum weight), packs the survivors
// at the front of the bucket and stores their count in kept[v].
// Buckets are independent, so chunks of them run in parallel.
func sortBuckets(offsets, adj, weights, kept []int64) {
	n := len(offsets) - 1
	// A bucket costs its length plus a constant, so that a long run of
	// empty vertices is shared out too.
	bounds := par.WeightedBoundaries(nil, n, par.Workers()*bucketChunksPerWorker,
		func(v int) int64 { return offsets[v] + int64(v) })
	par.ForBoundaryChunks(bounds, func(_, lo, hi int) {
		// Scratch reused by every bucket of the chunk.
		var pairs []arc
		var radix []int64
		for v := lo; v < hi; v++ {
			a := adj[offsets[v]:offsets[v+1]]
			if weights == nil {
				if len(a) >= radixMinBucket {
					radix = slices.Grow(radix[:0], len(a))
					par.RadixSortInt64(a, radix[:len(a)], int64(n-1))
				} else {
					slices.Sort(a)
				}
				kept[v] = int64(len(slices.Compact(a)))
				continue
			}
			w := weights[offsets[v]:offsets[v+1]]
			pairs = pairs[:0]
			for i := range a {
				pairs = append(pairs, arc{a[i], w[i]})
			}
			slices.SortFunc(pairs, compareArcs)
			k := 0
			for i, e := range pairs {
				if i > 0 && e.v == pairs[i-1].v {
					continue
				}
				a[k], w[k] = e.v, e.w
				k++
			}
			kept[v] = int64(k)
		}
	})
}

// compactBuckets closes the gaps duplicate collapse left: kept[v] entries
// survive at the front of v's bucket. It returns the arrays unchanged when
// nothing was dropped, and otherwise exact-size copies, so the graph does
// not pin the dropped entries' memory.
func compactBuckets(offsets, adj, weights, kept []int64) (_, _, _ []int64) {
	n := len(kept)
	newOffsets := make([]int64, n+1)
	copy(newOffsets, kept)
	total := par.ExclusivePrefixSum(newOffsets)
	if total == int64(len(adj)) {
		return offsets, adj, weights
	}
	newAdj := make([]int64, total)
	var newWeights []int64
	if weights != nil {
		newWeights = make([]int64, total)
	}
	par.ForChunked(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			src, dst, k := offsets[v], newOffsets[v], kept[v]
			copy(newAdj[dst:dst+k], adj[src:src+k])
			if weights != nil {
				copy(newWeights[dst:dst+k], weights[src:src+k])
			}
		}
	})
	return newOffsets, newAdj, newWeights
}

// EdgeList returns the graph's edges as an edge list, each once with U < V.
func (g *Graph) EdgeList() []Edge {
	var out []Edge
	for v := int64(0); v < g.n; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				out = append(out, Edge{v, w})
			}
		}
	}
	return out
}
