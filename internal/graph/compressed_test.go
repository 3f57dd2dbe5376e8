package graph_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

func rmatGraph(t testing.TB, scale, ef int) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: ef, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompressRoundtrip checks that every accessor of the compressed twin
// agrees with the flat original, neighbor for neighbor.
func TestCompressRoundtrip(t *testing.T) {
	g := rmatGraph(t, 10, 8)
	c := graph.MustCompress(g)
	if !c.Compressed() || c.Rep() != graph.RepCompressed {
		t.Fatalf("compressed graph reports rep %q", c.Rep())
	}
	if g.Compressed() || g.Rep() != graph.RepFlat {
		t.Fatalf("flat graph reports rep %q", g.Rep())
	}
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("compressed shape %d/%d, want %d/%d", c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if c.MaxDegree() != g.MaxDegree() {
		t.Fatalf("compressed max degree %d, want %d", c.MaxDegree(), g.MaxDegree())
	}
	if !c.SortedAdjacency() {
		t.Fatal("compressed graph not sorted")
	}
	if c.Adjacency() != nil {
		t.Fatal("compressed graph exposes a flat adjacency array")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyCompressed(); err != nil {
		t.Fatal(err)
	}
	var buf []int64
	for v := int64(0); v < g.NumVertices(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("vertex %d: degree %d, want %d", v, c.Degree(v), g.Degree(v))
		}
		want := g.Neighbors(v)
		if got := c.Neighbors(v); !equalInt64s(got, want) {
			t.Fatalf("vertex %d: Neighbors %v, want %v", v, got, want)
		}
		buf = c.DecodeNeighbors(v, buf[:0])
		if !equalInt64s(buf, want) {
			t.Fatalf("vertex %d: DecodeNeighbors %v, want %v", v, buf, want)
		}
		it := c.NeighborDecoder(v)
		for i, w := range want {
			got, ok := it.Next()
			if !ok || got != w {
				t.Fatalf("vertex %d: decoder pos %d = (%d,%v), want (%d,true)", v, i, got, ok, w)
			}
		}
		if got, ok := it.Next(); ok {
			t.Fatalf("vertex %d: decoder overruns with %d", v, got)
		}
		// Adjacent on both representations, walked whole and left early.
		for _, gr := range []*graph.Graph{g, c} {
			if got := slices.Collect(gr.Adjacent(v)); !equalInt64s(got, want) {
				t.Fatalf("vertex %d: Adjacent %v, want %v", v, got, want)
			}
			for w := range gr.Adjacent(v) {
				if w != want[0] {
					t.Fatalf("vertex %d: Adjacent starts at %d, want %d", v, w, want[0])
				}
				break
			}
		}
	}
	// The blob should actually compress: scale-free varint deltas sit well
	// under the flat 8 bytes/entry.
	flatBytes := 8 * g.NumEdges()
	if got := int64(len(c.CompressedBlob())); got*2 > flatBytes {
		t.Fatalf("blob is %d bytes for %d flat bytes; expected >=2x compression", got, flatBytes)
	}
}

func TestDecompress(t *testing.T) {
	g := rmatGraph(t, 9, 6)
	c := graph.MustCompress(g)
	d := graph.Decompress(c)
	if d.Compressed() {
		t.Fatal("Decompress returned a compressed graph")
	}
	if !reflect.DeepEqual(d.Adjacency(), g.Adjacency()) {
		t.Fatal("decompressed adjacency differs from original")
	}
	if !reflect.DeepEqual(d.Offsets(), g.Offsets()) {
		t.Fatal("decompressed offsets differ from original")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Identity conversions.
	if graph.Decompress(g) != g {
		t.Fatal("Decompress of a flat graph is not the identity")
	}
	if c2, err := graph.Compress(c); err != nil || c2 != c {
		t.Fatalf("Compress of a compressed graph = (%v,%v), want identity", c2, err)
	}
}

func TestWithRep(t *testing.T) {
	g := rmatGraph(t, 8, 4)
	c, err := graph.WithRep(g, graph.RepCompressed)
	if err != nil || !c.Compressed() {
		t.Fatalf("WithRep compressed = (%v, %v)", c, err)
	}
	f, err := graph.WithRep(c, graph.RepFlat)
	if err != nil || f.Compressed() {
		t.Fatalf("WithRep flat = (%v, %v)", f, err)
	}
	if _, err := graph.WithRep(g, "bogus"); err == nil {
		t.Fatal("WithRep accepted an unknown representation")
	}
	if rep, ok := graph.ParseRep("compressed"); !ok || rep != graph.RepCompressed {
		t.Fatalf("ParseRep(compressed) = (%q,%v)", rep, ok)
	}
	if _, ok := graph.ParseRep("sparse"); ok {
		t.Fatal("ParseRep accepted an unknown representation")
	}
}

// TestCompressEdgeCases exercises the encodings the RMAT test cannot:
// backward first neighbors, self-loops (delta encodes v-v=0 via zigzag),
// kept duplicates (plain delta 0), weights, and degenerate graphs.
func TestCompressEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *graph.Graph
	}{
		{"empty", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(0, nil, graph.BuildOptions{SortAdjacency: true})
		}},
		{"isolated", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(5, nil, graph.BuildOptions{SortAdjacency: true})
		}},
		{"selfloop", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(3, []graph.Edge{{U: 1, V: 1}, {U: 0, V: 2}},
				graph.BuildOptions{SortAdjacency: true, KeepSelfLoops: true})
		}},
		{"duplicates", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(4, []graph.Edge{{U: 0, V: 3}, {U: 0, V: 3}, {U: 2, V: 1}},
				graph.BuildOptions{SortAdjacency: true, KeepDuplicates: true})
		}},
		{"weighted", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
				graph.BuildOptions{SortAdjacency: true, Weights: []int64{7, -2, 9}})
		}},
		{"directed", func(t *testing.T) *graph.Graph {
			return graph.MustBuild(6, []graph.Edge{{U: 5, V: 0}, {U: 5, V: 4}, {U: 3, V: 1}},
				graph.BuildOptions{SortAdjacency: true, Directed: true})
		}},
		{"star", func(t *testing.T) *graph.Graph {
			edges := make([]graph.Edge, 63)
			for i := range edges {
				edges[i] = graph.Edge{U: 0, V: int64(i + 1)}
			}
			return graph.MustBuild(64, edges, graph.BuildOptions{SortAdjacency: true})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			c := graph.MustCompress(g)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyCompressed(); err != nil {
				t.Fatal(err)
			}
			if c.NumEdges() != g.NumEdges() {
				t.Fatalf("edges %d, want %d", c.NumEdges(), g.NumEdges())
			}
			for v := int64(0); v < g.NumVertices(); v++ {
				if !equalInt64s(c.Neighbors(v), g.Neighbors(v)) {
					t.Fatalf("vertex %d: %v, want %v", v, c.Neighbors(v), g.Neighbors(v))
				}
				if g.Weighted() && !equalInt64s(c.NeighborWeights(v), g.NeighborWeights(v)) {
					t.Fatalf("vertex %d weights: %v, want %v", v, c.NeighborWeights(v), g.NeighborWeights(v))
				}
			}
			d := graph.Decompress(c)
			if !reflect.DeepEqual(d.Adjacency(), g.Adjacency()) {
				t.Fatal("decompress mismatch")
			}
			// HasEdge goes through the decoded list on compressed graphs.
			for v := int64(0); v < g.NumVertices(); v++ {
				for w := int64(0); w < g.NumVertices(); w++ {
					if c.HasEdge(v, w) != g.HasEdge(v, w) {
						t.Fatalf("HasEdge(%d,%d) = %v, flat says %v", v, w, c.HasEdge(v, w), g.HasEdge(v, w))
					}
				}
			}
		})
	}
}

func TestCompressRejectsUnsorted(t *testing.T) {
	g, err := graph.FromCSR(3, []int64{0, 2, 2, 2}, []int64{2, 1}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.SortedAdjacency() {
		t.Fatal("fixture unexpectedly sorted")
	}
	if _, err := graph.Compress(g); err == nil {
		t.Fatal("Compress accepted unsorted adjacency")
	}
}

func TestFromCompressedCSRValidates(t *testing.T) {
	g := rmatGraph(t, 6, 4)
	c := graph.MustCompress(g)
	ok, err := graph.FromCompressedCSR(c.NumVertices(), c.Offsets(), c.CompressedOffsets(), c.CompressedBlob(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if ok.NumEdges() != g.NumEdges() || !ok.SortedAdjacency() {
		t.Fatalf("reconstructed graph %v", ok)
	}
	n := c.NumVertices()
	bad := []struct {
		name string
		f    func() (*graph.Graph, error)
	}{
		{"short coff", func() (*graph.Graph, error) {
			return graph.FromCompressedCSR(n, c.Offsets(), c.CompressedOffsets()[:n], c.CompressedBlob(), nil, false)
		}},
		{"blob length", func() (*graph.Graph, error) {
			return graph.FromCompressedCSR(n, c.Offsets(), c.CompressedOffsets(), c.CompressedBlob()[:len(c.CompressedBlob())-1], nil, false)
		}},
		{"bytes below degree", func() (*graph.Graph, error) {
			coff := append([]int64(nil), c.CompressedOffsets()...)
			coff[1] = coff[0] // vertex 0 has degree > 0 in this fixture
			return graph.FromCompressedCSR(n, c.Offsets(), coff, c.CompressedBlob(), nil, false)
		}},
		{"weights length", func() (*graph.Graph, error) {
			return graph.FromCompressedCSR(n, c.Offsets(), c.CompressedOffsets(), c.CompressedBlob(), []int64{1, 2}, false)
		}},
	}
	if c.Degree(0) == 0 {
		t.Fatal("fixture vertex 0 has degree 0; pick another seed")
	}
	for _, tc := range bad {
		if _, err := tc.f(); err == nil {
			t.Errorf("%s: FromCompressedCSR accepted corrupt input", tc.name)
		}
	}
}

// TestDecodeAdjacencyErrors pins the typed errors of the checked decoder.
func TestDecodeAdjacencyErrors(t *testing.T) {
	g := graph.MustBuild(8, []graph.Edge{{U: 3, V: 1}, {U: 3, V: 5}, {U: 3, V: 6}},
		graph.BuildOptions{SortAdjacency: true, Directed: true})
	c := graph.MustCompress(g)
	block := append([]byte(nil), c.CompressedBlob()[c.CompressedOffsets()[3]:c.CompressedOffsets()[4]]...)
	want := []int64{1, 5, 6}
	got, err := graph.DecodeAdjacency(3, 8, 3, block, nil)
	if err != nil || !equalInt64s(got, want) {
		t.Fatalf("valid block decoded to (%v, %v), want %v", got, err, want)
	}
	fails := []struct {
		name string
		src  int64
		n    int64
		deg  int64
		data []byte
	}{
		{"truncated", 3, 8, 3, block[:len(block)-1]},
		{"empty with degree", 3, 8, 1, nil},
		{"trailing bytes", 3, 8, 2, block},
		{"overlong varint", 0, 8, 1, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"unterminated varint", 0, 8, 1, []byte{0x80, 0x80}},
		{"first neighbor out of range", 0, 2, 1, []byte{0x08}}, // zigzag(4): 0+4 >= 2
		{"first neighbor negative", 1, 8, 1, []byte{0x05}},     // zigzag^-1(5) = -3: 1-3 < 0
		{"delta out of range", 0, 4, 2, []byte{0x02, 0x7f}},    // 1 + 127 >= 4
		{"negative degree", 0, 4, -1, nil},
	}
	for _, tc := range fails {
		_, err := graph.DecodeAdjacency(tc.src, tc.n, tc.deg, tc.data, nil)
		var de *graph.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: got %v, want *DecodeError", tc.name, err)
			continue
		}
		if de.Vertex != tc.src {
			t.Errorf("%s: error names vertex %d, want %d", tc.name, de.Vertex, tc.src)
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
