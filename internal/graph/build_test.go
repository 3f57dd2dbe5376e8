package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphxmt/internal/par"
	"graphxmt/internal/rng"
)

// referenceBuild is the sort-based Build this package shipped before the
// bucketed one, kept as the oracle: materialize every directed entry, sort
// the whole list by (u, v, w), drop equal-(u,v) runs after their first
// entry, read the CSR off the sorted list. Inputs must be in range.
func referenceBuild(n int64, edges []Edge, opt BuildOptions) *Graph {
	type entry struct{ u, v, w int64 }
	var entries []entry
	for i, e := range edges {
		if e.U == e.V && !opt.KeepSelfLoops {
			continue
		}
		var w int64
		if opt.Weights != nil {
			w = opt.Weights[i]
		}
		entries = append(entries, entry{e.U, e.V, w})
		if !opt.Directed && e.U != e.V {
			entries = append(entries, entry{e.V, e.U, w})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.u != b.u {
			return a.u < b.u
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.w < b.w
	})
	if !opt.KeepDuplicates {
		entries = slices.CompactFunc(entries, func(a, b entry) bool { return a.u == b.u && a.v == b.v })
	}
	g := &Graph{n: n, directed: opt.Directed, sorted: true,
		offsets: make([]int64, n+1), adj: make([]int64, len(entries))}
	if opt.Weights != nil {
		g.weights = make([]int64, len(entries))
	}
	for i, e := range entries {
		g.offsets[e.u+1]++
		g.adj[i] = e.v
		if g.weights != nil {
			g.weights[i] = e.w
		}
	}
	for v := int64(0); v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	g.computeMaxDegree()
	return g
}

// sameCSR compares two graphs array for array.
func sameCSR(got, want *Graph) error {
	switch {
	case got.n != want.n || got.directed != want.directed:
		return fmt.Errorf("shape: n=%d directed=%v, want n=%d directed=%v", got.n, got.directed, want.n, want.directed)
	case !slices.Equal(got.offsets, want.offsets):
		return fmt.Errorf("offsets differ: %v, want %v", clip(got.offsets), clip(want.offsets))
	case !slices.Equal(got.adj, want.adj):
		return fmt.Errorf("adj differs: %v, want %v", clip(got.adj), clip(want.adj))
	case (got.weights == nil) != (want.weights == nil) || !slices.Equal(got.weights, want.weights):
		return fmt.Errorf("weights differ: %v, want %v", clip(got.weights), clip(want.weights))
	case got.SortedAdjacency() != want.SortedAdjacency():
		return fmt.Errorf("SortedAdjacency = %v, want %v", got.SortedAdjacency(), want.SortedAdjacency())
	case got.MaxDegree() != want.MaxDegree():
		return fmt.Errorf("MaxDegree = %d, want %d", got.MaxDegree(), want.MaxDegree())
	case got.MaxDegreeVertex() != want.MaxDegreeVertex():
		return fmt.Errorf("MaxDegreeVertex = %d, want %d", got.MaxDegreeVertex(), want.MaxDegreeVertex())
	}
	return nil
}

func clip(s []int64) []int64 { return s[:min(len(s), 24)] }

// allBuildOptions is every combination of the four flags, indexed by
// Directed | KeepSelfLoops<<1 | KeepDuplicates<<2 | SortAdjacency<<3.
// SortAdjacency is one of them precisely because it must change nothing.
func allBuildOptions() []BuildOptions {
	var out []BuildOptions
	for bits := 0; bits < 16; bits++ {
		out = append(out, BuildOptions{
			Directed:       bits&1 != 0,
			KeepSelfLoops:  bits&2 != 0,
			KeepDuplicates: bits&4 != 0,
			SortAdjacency:  bits&8 != 0,
		})
	}
	return out
}

func TestBuildMatchesReference(t *testing.T) {
	repeat := func(e Edge, k int) []Edge {
		out := make([]Edge, k)
		for i := range out {
			out[i] = e
		}
		return out
	}
	// The star's hub bucket is long enough for the radix path; its spokes
	// arrive in descending order with every third one doubled.
	var star []Edge
	for v := int64(3 * radixMinBucket); v >= 1; v-- {
		star = append(star, Edge{0, v})
		if v%3 == 0 {
			star = append(star, Edge{v, 0})
		}
	}
	var loops []Edge
	for v := int64(0); v < 9; v++ {
		loops = append(loops, repeat(Edge{v, v}, int(v%3)+1)...)
	}
	cases := []struct {
		name  string
		n     int64
		edges []Edge
	}{
		{"n=0", 0, nil},
		{"no edges", 7, nil},
		{"single vertex", 1, []Edge{{0, 0}, {0, 0}}},
		{"star hub", int64(3*radixMinBucket) + 1, star},
		{"all duplicates", 5, append(repeat(Edge{1, 3}, 40), repeat(Edge{3, 1}, 25)...)},
		{"all self-loops", 9, loops},
		// Dense multigraphs: few vertices, many parallel edges and loops.
		{"random dense", 12, randomEdges(1, 12, 600)},
		{"random hubs", 40, randomEdges(2, 40, 5000)},
		// Sparse enough that most buckets are empty or singletons, and
		// large enough that the parallel passes split into several chunks.
		{"random sparse", 30000, randomEdges(3, 30000, 20000)},
	}
	defer par.SetWorkers(par.SetWorkers(1))
	for _, c := range cases {
		// Few distinct weights, so duplicate edges meet with equal and with
		// different weights.
		r := rng.New(uint64(len(c.edges)))
		weights := make([]int64, len(c.edges))
		for i := range weights {
			weights[i] = int64(r.Uint64n(4)) - 1
		}
		for flags, opt := range allBuildOptions() {
			for _, w := range [][]int64{nil, weights} {
				opt.Weights = w
				want := referenceBuild(c.n, c.edges, opt)
				for _, workers := range []int{1, 3, 8} {
					name := fmt.Sprintf("%s/flags=%04b/weighted=%v/w=%d", c.name, flags, w != nil, workers)
					par.SetWorkers(workers)
					got, err := Build(c.n, c.edges, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := sameCSR(got, want); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s: Validate: %v", name, err)
					}
				}
			}
		}
	}
}

func TestBuildNamesLowestOutOfRangeEdge(t *testing.T) {
	const n, m = 100, 50000 // enough edges for several validation chunks
	edges := randomEdges(9, n, m)
	for _, i := range []int{4097, 12000, 12001, 49999} {
		edges[i] = Edge{int64(i), -1}
	}
	edges[30000] = Edge{0, n}
	defer par.SetWorkers(par.SetWorkers(1))
	for _, workers := range []int{1, 3, 8} {
		par.SetWorkers(workers)
		_, err := Build(n, edges, BuildOptions{})
		want := fmt.Sprintf("graph: edge 4097 (4097,-1) out of range [0,%d)", n)
		if err == nil || err.Error() != want {
			t.Fatalf("w=%d: err = %v, want %q", workers, err, want)
		}
	}
	// The last edge alone.
	edges = randomEdges(9, n, m)
	edges[m-1] = Edge{n, 0}
	par.SetWorkers(8)
	if _, err := Build(n, edges, BuildOptions{}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("edge %d ", m-1)) {
		t.Fatalf("err = %v, want edge %d named", err, m-1)
	}
}

// FuzzBuild feeds Build arbitrary edge lists: out-of-range input must be
// refused with an error, and everything else must pass Validate and equal
// the sort-based oracle, whatever the flags.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 1, 2, 2, 0, 2, 3}, false)
	f.Add(uint8(3), uint8(15), []byte{0, 0, 1, 1, 1, 1, 2, 1, 1, 2}, true)
	f.Add(uint8(0), uint8(3), []byte{}, true)
	f.Add(uint8(2), uint8(6), []byte{0, 1, 0, 1, 1, 0, 9, 0}, false)
	f.Fuzz(func(t *testing.T, nRaw, flags uint8, data []byte, weighted bool) {
		n := int64(nRaw % 64)
		edges := make([]Edge, len(data)/2)
		inRange := true
		for i := range edges {
			// Bytes above 63 become out-of-range and negative endpoints.
			edges[i] = Edge{int64(int8(data[2*i])), int64(int8(data[2*i+1]))}
			inRange = inRange && edges[i].U >= 0 && edges[i].U < n && edges[i].V >= 0 && edges[i].V < n
		}
		opt := allBuildOptions()[flags%16]
		if weighted {
			opt.Weights = make([]int64, len(edges))
			for i := range opt.Weights {
				opt.Weights[i] = int64(data[2*i]^data[2*i+1]) % 3
			}
		}
		g, err := Build(n, edges, opt)
		if !inRange {
			if err == nil {
				t.Fatal("out-of-range edge accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := sameCSR(g, referenceBuild(n, edges, opt)); err != nil {
			t.Fatal(err)
		}
	})
}
