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
	// Directed selects a directed graph: each input edge becomes exactly
	// one adjacency entry U->V. When false (the default, matching the
	// paper's undirected RMAT inputs), each edge is stored in both
	// directions.
	Directed bool
	// KeepSelfLoops retains U==V edges. GraphCT kernels assume self-loops
	// are removed, so the default drops them.
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges. RMAT naturally generates
	// duplicates; the default collapses them, as the Graph500 reference
	// does before kernel timing.
	KeepDuplicates bool
	// SortAdjacency is retained only for source compatibility: Build always
	// returns ascending adjacency lists (the triangle counting kernels
	// require them) and this field has never selected an unsorted path.
	SortAdjacency bool
	// Weights optionally supplies one weight per input edge (parallel to
	// the edge slice). Nil builds an unweighted graph. Duplicate collapse
	// keeps the minimum weight of a duplicate group.
	Weights []int64
}

// Build converts an edge list into a CSR Graph over vertices [0, n).
// Edges referencing vertices outside [0, n) are rejected.
//
// The construction never sorts the edge list: it counts out-degrees,
// prefix-sums them into row offsets, scatters every arc into its source
// vertex's bucket of the adjacency array, and then sorts (and, unless
// KeepDuplicates, dedups) each bucket on its own, in parallel. A bucket is
// sorted on its full key — neighbour, then weight — so entries that compare
// equal are identical and the order the scatter filled a bucket in cannot
// reach the result: the CSR is the same at any worker count.
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

	// Edge i contributes the arc U->V and, on an undirected graph, V->U. A
	// dropped self-loop contributes nothing; a kept one is stored once even
	// when undirected (degree contribution 1), matching GraphCT's convention.
	directed, keepLoops := opt.Directed, opt.KeepSelfLoops

	// Count out-degrees, then turn them into row offsets.
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V {
			offsets[e.U]++
			if !directed {
				offsets[e.V]++
			}
		} else if keepLoops {
			offsets[e.U]++
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
			if !directed {
				place(e.V, e.U, i)
			}
		} else if keepLoops {
			place(e.U, e.V, i)
		}
	}

	// Sort each bucket; cursor is done and becomes the per-vertex count of
	// entries that survive duplicate collapse.
	var kept []int64
	if !opt.KeepDuplicates {
		kept = cursor
	}
	sortBuckets(offsets, adj, weights, kept)
	if kept != nil {
		offsets, adj, weights = compactBuckets(offsets, adj, weights, kept)
	}

	g := &Graph{
		n:        n,
		directed: opt.Directed,
		sorted:   true,
		offsets:  offsets,
		adj:      adj,
		weights:  weights,
	}
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
// the slices. It validates the structure.
func FromCSR(n int64, offsets, adj []int64, weights []int64, directed bool) (*Graph, error) {
	g := &Graph{n: n, offsets: offsets, adj: adj, weights: weights, directed: directed}
	ascending, err := g.validate()
	if err != nil {
		return nil, err
	}
	g.sorted = ascending
	g.computeMaxDegree()
	return g, nil
}

// Transpose returns the graph with every directed entry reversed. For an
// undirected graph it returns a structurally equal copy. A compressed
// graph is transposed through its flat twin; the result is flat.
func (g *Graph) Transpose() *Graph {
	if g.Compressed() {
		g = Decompress(g)
	}
	t := &Graph{
		n:        g.n,
		directed: g.directed,
		offsets:  make([]int64, g.n+1),
		adj:      make([]int64, len(g.adj)),
	}
	if g.weights != nil {
		t.weights = make([]int64, len(g.weights))
	}
	counts := make([]int64, g.n)
	for _, w := range g.adj {
		counts[w]++
	}
	par.ExclusivePrefixSum(counts)
	copy(t.offsets, counts)
	t.offsets[g.n] = int64(len(g.adj))
	next := make([]int64, g.n)
	copy(next, t.offsets[:g.n])
	for v := int64(0); v < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			w := g.adj[i]
			pos := next[w]
			next[w]++
			t.adj[pos] = v
			if t.weights != nil {
				t.weights[pos] = g.weights[i]
			}
		}
	}
	sortBuckets(t.offsets, t.adj, t.weights, nil)
	t.sorted = true
	t.computeMaxDegree()
	return t
}

// InducedSubgraph extracts the subgraph induced by the given vertices,
// which are relabeled 0..len(vertices)-1 in the order supplied. Duplicate
// vertices are rejected.
func (g *Graph) InducedSubgraph(vertices []int64) (*Graph, map[int64]int64, error) {
	relabel := make(map[int64]int64, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if _, dup := relabel[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate subgraph vertex %d", v)
		}
		relabel[v] = int64(i)
	}
	var edges []Edge
	var weights []int64
	for _, v := range vertices {
		nv := relabel[v]
		nbr := g.Neighbors(v)
		for i, w := range nbr {
			nw, ok := relabel[w]
			if !ok {
				continue
			}
			if !g.directed && nv > nw {
				continue // count undirected edges once
			}
			edges = append(edges, Edge{nv, nw})
			if g.weights != nil {
				weights = append(weights, g.NeighborWeights(v)[i])
			}
		}
	}
	opt := BuildOptions{
		Directed:      g.directed,
		SortAdjacency: true,
		KeepSelfLoops: true, // already filtered by the source graph's policy
	}
	if g.weights != nil {
		opt.Weights = weights
	}
	sub, err := Build(int64(len(vertices)), edges, opt)
	if err != nil {
		return nil, nil, err
	}
	return sub, relabel, nil
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
// moving with their neighbours. When kept != nil it also collapses each run
// of equal neighbours to its first entry (the minimum weight), packs the
// survivors at the front of the bucket and stores their count in kept[v].
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
				if kept != nil {
					kept[v] = int64(len(slices.Compact(a)))
				}
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
				if kept != nil && i > 0 && e.v == pairs[i-1].v {
					continue
				}
				a[k], w[k] = e.v, e.w
				k++
			}
			if kept != nil {
				kept[v] = int64(k)
			}
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

// EdgeList returns the graph's edges as an edge list. Undirected edges are
// emitted once with U <= V; directed entries are emitted as stored.
func (g *Graph) EdgeList() []Edge {
	var out []Edge
	for v := int64(0); v < g.n; v++ {
		for _, w := range g.Neighbors(v) {
			if g.directed || v <= w {
				out = append(out, Edge{v, w})
			}
		}
	}
	return out
}
