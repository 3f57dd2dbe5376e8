package graphio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/rng"
)

func graphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %v vs %v", a, b)
	}
	if a.Weighted() != b.Weighted() {
		t.Fatalf("flags mismatch")
	}
	for v := int64(0); v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at %d: %v vs %v", v, na, nb)
			}
		}
		if a.Weighted() {
			wa, wb := a.NeighborWeights(v), b.NeighborWeights(v)
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("weight mismatch at %d", v)
				}
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	g, err := graph.Build(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 0}},
		graph.BuildOptions{Weights: []int64{3, 7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

// TestBinaryRefusesNonSimpleLists: a CSR1 file whose arrays are symmetric
// but repeat an arc or hold a self-loop is a "structure" *CorruptError
// wrapping the *graph.AdjacencyError that names the fault.
func TestBinaryRefusesNonSimpleLists(t *testing.T) {
	for _, c := range []struct {
		name         string
		offsets, adj []int64
		reason       string
	}{
		{"duplicate arc", []int64{0, 2, 4}, []int64{1, 1, 0, 0}, "duplicate neighbour 1"},
		{"self-loop", []int64{0, 1, 1}, []int64{0}, "self-loop"},
	} {
		var buf bytes.Buffer
		buf.WriteString("GXMTCSR1")
		for _, x := range append([]int64{0, int64(len(c.offsets) - 1), int64(len(c.adj))}, append(c.offsets, c.adj...)...) {
			binary.Write(&buf, binary.LittleEndian, x)
		}
		_, err := readBinary(&buf)
		var ce *CorruptError
		var ae *graph.AdjacencyError
		if !errors.As(err, &ce) || ce.Section != "structure" || !errors.As(err, &ae) || ae.Reason != c.reason {
			t.Errorf("%s: err = %v, want a structure CorruptError naming %q", c.name, err, c.reason)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := readBinary(bytes.NewReader([]byte("not a graph file"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := readBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Valid magic, truncated header.
	if _, err := readBinary(bytes.NewReader([]byte("GXMTCSR1\x01"))); err == nil {
		t.Fatal("expected truncated header error")
	}
}

func TestBinaryRejectsImplausibleSizes(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("GXMTCSR1")
	// flags=0, n=2^60, m=0
	buf.Write(make([]byte, 8))
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0x10})
	buf.Write(make([]byte, 8))
	if _, err := readBinary(&buf); err == nil {
		t.Fatal("expected implausible-size error")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := gen.Ring(64)
	path := filepath.Join(t.TempDir(), "ring.gxmt")
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := gen.CliqueChain(2, 4)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, "clique chain\ntwo lines"); err != nil {
		t.Fatal(err)
	}
	g2, err := readDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestDIMACSWeightedRoundTrip(t *testing.T) {
	g, err := graph.Build(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		graph.BuildOptions{Weights: []int64{5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	g2, err := readDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestDIMACSParsing(t *testing.T) {
	in := `c a comment

p edge 4 3
e 1 2
a 2 3 7
e 4 4
`
	g, err := readDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 1) {
		t.Fatal("edges missing (an arc line is an undirected edge too)")
	}
	if g.HasEdge(3, 3) {
		t.Fatal("self loop should be dropped by default build")
	}
	if !g.Weighted() {
		t.Fatal("weight column should make the graph weighted")
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",                  // edge before problem line
		"p edge 2 1\np edge 2 1\n", // duplicate problem line
		"p edge\n",                 // malformed problem line
		"p edge -3 1\n",            // bad n
		"p edge 2 1\ne 1\n",        // malformed edge
		"p edge 2 1\ne 0 1\n",      // out of range low
		"p edge 2 1\ne 1 5\n",      // out of range high
		"p edge 2 1\ne a b\n",      // non-numeric
		"p edge 2 1\ne 1 2 zz\n",   // bad weight
		"p edge 2 1\nq what\n",     // unknown record
		"",                         // missing problem line
	}
	for _, in := range cases {
		if _, err := readDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%30) + 1
		m := int(mRaw % 120)
		r := rng.New(seed)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := writeBinary(&buf, g); err != nil {
			return false
		}
		g2, err := readBinary(&buf)
		if err != nil {
			return false
		}
		if g.NumEdges() != g2.NumEdges() || g.NumVertices() != g2.NumVertices() {
			return false
		}
		for v := int64(0); v < n; v++ {
			a, b := g.Neighbors(v), g2.Neighbors(v)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFileByExtension(t *testing.T) {
	g := gen.CliqueChain(2, 3)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.gxmt")
	if err := WriteBinaryFile(binPath, g); err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, fromBin)

	dimacsPath := filepath.Join(dir, "g.dimacs")
	f, err := os.Create(dimacsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDIMACS(f, g, "test"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fromText, err := LoadFile(dimacsPath)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, fromText)

	if _, err := LoadFile(filepath.Join(dir, "missing.gxmt")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.CliqueChain(2, 4)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		graph.BuildOptions{Weights: []int64{5, 7}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestEdgeListParsing(t *testing.T) {
	in := `# SNAP-style comment
% matrix-market-style comment

0 1
1 2
5 0
`
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 {
		t.Fatalf("inferred n = %d, want 6", g.NumVertices())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 5) {
		t.Fatal("edges missing")
	}
	if g.Weighted() {
		t.Fatal("should be unweighted without a third column")
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",      // one field
		"a b\n",    // non-numeric
		"-1 2\n",   // negative
		"0 1 zz\n", // bad weight
	}
	for _, in := range cases {
		if _, err := readEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
	// Inferred size limit.
	if _, err := readEdgeList(strings.NewReader("0 99999999999\n")); err == nil {
		t.Fatal("expected vertex-count limit error")
	}
}

func TestLoadFileGzip(t *testing.T) {
	g := gen.CliqueChain(2, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gxmt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if err := writeBinary(gz, g); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)

	// Gzipped text formats resolve by the inner extension.
	tpath := filepath.Join(dir, "g.dimacs.gz")
	tf, err := os.Create(tpath)
	if err != nil {
		t.Fatal(err)
	}
	tgz := gzip.NewWriter(tf)
	if err := WriteDIMACS(tgz, g, "gz"); err != nil {
		t.Fatal(err)
	}
	if err := tgz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g3)

	// Corrupt gzip header errors cleanly.
	bad := filepath.Join(dir, "bad.gxmt.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("expected gzip error")
	}
}
