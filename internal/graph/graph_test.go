package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"graphxmt/internal/rng"
)

// triangleWithTail: 0-1-2 triangle, 2-3 tail, isolated 4.
func triangleWithTail(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(5, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, BuildOptions{SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasicUndirected(t *testing.T) {
	g := triangleWithTail(t)
	if g.NumVertices() != 5 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("directed entries = %d, want 8", g.NumEdges())
	}
	if g.UndirectedEdges() != 4 {
		t.Fatalf("undirected edges = %d, want 4", g.UndirectedEdges())
	}
	if g.Directed() {
		t.Fatal("should be undirected")
	}
	wantDeg := []int64{2, 2, 3, 1, 0}
	for v, d := range wantDeg {
		if g.Degree(int64(v)) != d {
			t.Fatalf("deg(%d) = %d, want %d", v, g.Degree(int64(v)), d)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDirected(t *testing.T) {
	g, err := Build(3, []Edge{{0, 1}, {1, 2}, {2, 0}}, BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.UndirectedEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edges wrong")
	}
}

func TestBuildDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := Build(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 1}, {2, 2}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// {0,1} symmetrized = entries (0,1),(1,0); duplicates collapsed.
	if g.NumEdges() != 2 {
		t.Fatalf("entries = %d, want 2", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop retained")
	}
}

func TestBuildKeepsSelfLoopsWhenAsked(t *testing.T) {
	g, err := Build(2, []Edge{{0, 0}, {0, 1}}, BuildOptions{KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop dropped")
	}
	if g.Degree(0) != 2 { // loop stored once + edge to 1
		t.Fatalf("deg(0) = %d, want 2", g.Degree(0))
	}
}

func TestBuildKeepsDuplicatesWhenAsked(t *testing.T) {
	g, err := Build(2, []Edge{{0, 1}, {0, 1}}, BuildOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("deg(0) = %d, want 2", g.Degree(0))
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 5}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := Build(2, []Edge{{-1, 0}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for negative vertex")
	}
	if _, err := Build(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestBuildWeighted(t *testing.T) {
	g, err := Build(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Weights: []int64{7, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	w := g.NeighborWeights(0)
	if len(w) != 1 || w[0] != 7 {
		t.Fatalf("weights(0) = %v", w)
	}
	// Symmetrized entry 1->0 carries the same weight.
	nbr, wts := g.Neighbors(1), g.NeighborWeights(1)
	for i, x := range nbr {
		want := int64(7)
		if x == 2 {
			want = 9
		}
		if wts[i] != want {
			t.Fatalf("weight 1->%d = %d, want %d", x, wts[i], want)
		}
	}
}

func TestBuildWeightedDuplicateKeepsMin(t *testing.T) {
	g, err := Build(2, []Edge{{0, 1}, {0, 1}}, BuildOptions{Weights: []int64{9, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.NeighborWeights(0); len(w) != 1 || w[0] != 3 {
		t.Fatalf("weights = %v, want [3]", w)
	}
}

func TestBuildWeightsLengthMismatch(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 1}}, BuildOptions{Weights: []int64{1, 2}}); err == nil {
		t.Fatal("expected weights length error")
	}
}

func TestNeighborWeightsPanicsUnweighted(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1}}, BuildOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.NeighborWeights(0)
}

func TestHasEdgeSortedAndUnsorted(t *testing.T) {
	g := triangleWithTail(t)
	if !g.SortedAdjacency() {
		t.Fatal("expected sorted adjacency")
	}
	cases := []struct {
		u, v int64
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 3, false}, {3, 2, true}, {4, 0, false}}
	for _, c := range cases {
		if g.HasEdge(c.u, c.v) != c.want {
			t.Fatalf("HasEdge(%d,%d) = %v", c.u, c.v, !c.want)
		}
	}
}

func TestTranspose(t *testing.T) {
	g, err := Build(4, []Edge{{0, 1}, {0, 2}, {3, 0}}, BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 0) || !tr.HasEdge(0, 3) {
		t.Fatal("transpose missing edges")
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", tr.NumEdges(), g.NumEdges())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Transposing twice restores the original.
	trtr := tr.Transpose()
	for v := int64(0); v < 4; v++ {
		a, b := g.Neighbors(v), trtr.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestTransposeUndirectedIsIdentity(t *testing.T) {
	g := triangleWithTail(t)
	tr := g.Transpose()
	for v := int64(0); v < g.NumVertices(); v++ {
		a, b := g.Neighbors(v), tr.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d: %v vs %v", v, a, b)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangleWithTail(t)
	edges := g.EdgeList()
	if len(edges) != 4 {
		t.Fatalf("edge list = %v", edges)
	}
	g2, err := Build(g.NumVertices(), edges, BuildOptions{SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestFromCSR(t *testing.T) {
	g, err := FromCSR(3, []int64{0, 1, 2, 2}, []int64{1, 0}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong")
	}
	if _, err := FromCSR(3, []int64{0, 1}, []int64{1}, nil, false); err == nil {
		t.Fatal("expected offsets length error")
	}
	if _, err := FromCSR(2, []int64{0, 1, 2}, []int64{5, 0}, nil, true); err == nil {
		t.Fatal("expected out-of-range adjacency error")
	}
}

func TestMaxDegreeAndHistogram(t *testing.T) {
	g := triangleWithTail(t)
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
	h := g.DegreeHistogram()
	if h[0] != 1 || h[1] != 1 || h[2] != 2 || h[3] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestMaxDegreeMemoizedByEveryConstructor(t *testing.T) {
	// MaxDegree and MaxDegreeVertex are computed at build time; verify each
	// constructor fills them by comparing against a fresh offsets scan for
	// the first vertex of maximum degree.
	check := func(what string, g *Graph, wantMax int64) {
		t.Helper()
		var max, argmax int64 = -1, 0
		for v := int64(0); v < g.NumVertices(); v++ {
			if d := g.Degree(v); d > max {
				max, argmax = d, v
			}
		}
		if got := g.MaxDegree(); got != wantMax || (g.NumVertices() > 0 && got != max) {
			t.Fatalf("%s MaxDegree = %d, want %d", what, got, wantMax)
		}
		if got := g.MaxDegreeVertex(); got != argmax {
			t.Fatalf("%s MaxDegreeVertex = %d, want %d", what, got, argmax)
		}
	}

	// Build, with a hub of degree n-1 (star).
	n := int64(64)
	edges := make([]Edge, 0, n-1)
	for v := int64(1); v < n; v++ {
		edges = append(edges, Edge{0, v})
	}
	star := MustBuild(n, edges, BuildOptions{SortAdjacency: true})
	check("star", star, n-1)

	// FromCSR, with the maximum on a later vertex.
	csr, err := FromCSR(3, []int64{0, 0, 2, 2}, []int64{0, 2}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	check("FromCSR", csr, 2)

	// Transpose flips the star: max in-degree becomes 1, first at vertex 1.
	dirStar := MustBuild(n, edges, BuildOptions{Directed: true, SortAdjacency: true})
	tr := dirStar.Transpose()
	check("transpose", tr, 1)

	// Compress and Decompress carry both over; ties keep the first vertex.
	path := MustBuild(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, BuildOptions{SortAdjacency: true})
	c, err := Compress(path)
	if err != nil {
		t.Fatal(err)
	}
	check("compressed path", c, 2)
	check("decompressed path", Decompress(c), 2)

	// Empty graph.
	check("empty", MustBuild(0, nil, BuildOptions{}), 0)
}

func TestStringForms(t *testing.T) {
	g := triangleWithTail(t)
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}

// randomEdges builds a deterministic random edge list for property tests.
func randomEdges(seed uint64, n int64, m int) []Edge {
	r := rng.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int64(r.Uint64n(uint64(n))), int64(r.Uint64n(uint64(n)))}
	}
	return edges
}

func TestBuildPropertyInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%50) + 1
		m := int(mRaw % 200)
		g, err := Build(n, randomEdges(seed, n, m), BuildOptions{SortAdjacency: true})
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSymmetryProperty(t *testing.T) {
	// Every undirected graph must have u in N(v) iff v in N(u).
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%30) + 2
		m := int(mRaw % 100)
		g, err := Build(n, randomEdges(seed, n, m), BuildOptions{})
		if err != nil {
			return false
		}
		for v := int64(0); v < n; v++ {
			for _, w := range g.Neighbors(v) {
				if !g.HasEdge(w, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("unions failed")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union reported as merge")
	}
	if uf.Sets() != 3 {
		t.Fatalf("sets = %d", uf.Sets())
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Fatal("Same wrong")
	}
}

func TestReferenceComponents(t *testing.T) {
	g := triangleWithTail(t)
	labels := ReferenceComponents(g)
	want := []int64{0, 0, 0, 0, 4}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if CountComponents(labels) != 2 {
		t.Fatalf("components = %d", CountComponents(labels))
	}
}

func TestReferenceBFS(t *testing.T) {
	g := triangleWithTail(t)
	dist := ReferenceBFS(g, 0)
	want := []int64{0, 1, 1, 2, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
	if d := ReferenceBFS(g, -1); d[0] != -1 {
		t.Fatal("invalid source should give all -1")
	}
}

func TestReferenceTriangles(t *testing.T) {
	g := triangleWithTail(t)
	if n := ReferenceTriangles(g); n != 1 {
		t.Fatalf("triangles = %d, want 1", n)
	}
	// Complete graph K5 has C(5,3) = 10 triangles.
	var edges []Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	k5 := MustBuild(5, edges, BuildOptions{SortAdjacency: true})
	if n := ReferenceTriangles(k5); n != 10 {
		t.Fatalf("K5 triangles = %d, want 10", n)
	}
}

func TestReferenceBFSEdgeProperty(t *testing.T) {
	// For every edge (u,v) in a component, |d(u)-d(v)| <= 1.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%40) + 2
		m := int(mRaw % 150)
		g, err := Build(n, randomEdges(seed, n, m), BuildOptions{})
		if err != nil {
			return false
		}
		dist := ReferenceBFS(g, 0)
		for v := int64(0); v < n; v++ {
			for _, w := range g.Neighbors(v) {
				dv, dw := dist[v], dist[w]
				if (dv < 0) != (dw < 0) {
					return false // one reachable, neighbor not
				}
				if dv >= 0 && dw >= 0 && dv-dw > 1 || dw-dv > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsMatchUnionFindProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%40) + 1
		m := int(mRaw % 150)
		g, err := Build(n, randomEdges(seed, n, m), BuildOptions{})
		if err != nil {
			return false
		}
		labels := ReferenceComponents(g)
		// Same label <=> connected via union-find built independently.
		uf := newUnionFind(n)
		for _, e := range g.EdgeList() {
			uf.Union(e.U, e.V)
		}
		for v := int64(0); v < n; v++ {
			for w := int64(0); w < n; w++ {
				if (labels[v] == labels[w]) != uf.Same(v, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetsAdjacencyAccessors(t *testing.T) {
	g := triangleWithTail(t)
	off := g.Offsets()
	adj := g.Adjacency()
	if int64(len(off)) != g.NumVertices()+1 {
		t.Fatalf("offsets len = %d", len(off))
	}
	if int64(len(adj)) != g.NumEdges() {
		t.Fatalf("adjacency len = %d", len(adj))
	}
	// Neighbors views must window into the flat arrays.
	for v := int64(0); v < g.NumVertices(); v++ {
		nbr := g.Neighbors(v)
		for i, w := range nbr {
			if adj[off[v]+int64(i)] != w {
				t.Fatalf("accessor mismatch at %d", v)
			}
		}
	}
}

func TestMustBuildPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBuild(1, []Edge{{U: 0, V: 9}}, BuildOptions{})
}

func TestHasEdgeUnsortedPath(t *testing.T) {
	// FromCSR with deliberately unsorted adjacency exercises the linear
	// scan in HasEdge.
	g, err := FromCSR(3, []int64{0, 2, 3, 4}, []int64{2, 1, 0, 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.SortedAdjacency() {
		t.Skip("unexpectedly sorted")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(0, 1) || g.HasEdge(0, 0) {
		t.Fatal("unsorted HasEdge wrong")
	}
}

func TestValidateDetectsCorruptCSR(t *testing.T) {
	cases := []struct {
		n       int64
		offsets []int64
		adj     []int64
	}{
		{2, []int64{0, 2, 1}, []int64{1, 0}}, // decreasing offsets... offsets[n] != len? 1 != 2
		{2, []int64{1, 1, 2}, []int64{1, 0}}, // offsets[0] != 0
		{2, []int64{0, 1, 2}, []int64{1, 5}}, // adjacency out of range
		{2, []int64{0, 1}, []int64{1}},       // offsets too short
	}
	for i, c := range cases {
		if _, err := FromCSR(c.n, c.offsets, c.adj, nil, true); err == nil {
			t.Fatalf("case %d: corruption not detected", i)
		}
	}
}

func TestValidateLargeSymmetric(t *testing.T) {
	// Exercise the count-based symmetry path vs the degree-based one by
	// building a graph with > 2^20 entries? Too big for a unit test;
	// instead directly test the degree-based check through an asymmetric
	// large-ish CSR flagged undirected.
	// 3 vertices: 0->1 stored, but 1->0 missing.
	if _, err := FromCSR(3, []int64{0, 1, 1, 1}, []int64{1}, nil, false); err == nil {
		t.Fatal("asymmetric undirected CSR accepted")
	}
}

func TestStringDirected(t *testing.T) {
	g := MustBuild(2, []Edge{{U: 0, V: 1}}, BuildOptions{Directed: true})
	if g.String() == "" || g.String() == triangleWithTail(t).String() {
		t.Fatal("directed String() wrong")
	}
}

func TestSortAdjacencyInPlaceWeighted(t *testing.T) {
	// Transpose of a weighted directed graph exercises the weighted sort.
	g, err := Build(4, []Edge{{U: 3, V: 0}, {U: 3, V: 2}, {U: 3, V: 1}},
		BuildOptions{Directed: true, Weights: []int64{30, 32, 31}})
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	// In the transpose, vertices 0,1,2 each point to 3 with their weight.
	for v := int64(0); v < 3; v++ {
		if w := tr.NeighborWeights(v); len(w) != 1 || w[0] != 30+v {
			t.Fatalf("transposed weight at %d = %v", v, w)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// Duplicate neighbours: vertex 2 reaches 0 twenty times with descending
	// weights (a list FromCSR accepts as ascending, since only neighbours
	// count), so 0's transposed list meets twenty equal neighbours in the
	// wrong weight order. They must come out ordered by (neighbour, weight).
	const dups = 20
	offsets, adj, weights := []int64{0, 0, 1, 1 + dups}, []int64{0}, []int64{7}
	for w := int64(dups); w >= 1; w-- {
		adj, weights = append(adj, 0), append(weights, w)
	}
	g, err = FromCSR(3, offsets, adj, weights, true)
	if err != nil {
		t.Fatal(err)
	}
	tr = g.Transpose()
	wantAdj, wantW := []int64{1}, []int64{7}
	for w := int64(1); w <= dups; w++ {
		wantAdj, wantW = append(wantAdj, 2), append(wantW, w)
	}
	if !slices.Equal(tr.Neighbors(0), wantAdj) || !slices.Equal(tr.NeighborWeights(0), wantW) {
		t.Fatalf("transposed list of 0 = %v weights %v, want %v weights %v",
			tr.Neighbors(0), tr.NeighborWeights(0), wantAdj, wantW)
	}
	if !tr.SortedAdjacency() || tr.Degree(1) != 0 || tr.Degree(2) != 0 {
		t.Fatalf("transpose shape wrong: sorted=%v deg=%d,%d", tr.SortedAdjacency(), tr.Degree(1), tr.Degree(2))
	}
}
