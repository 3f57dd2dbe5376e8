package graphio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

func csr2TestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCSR2RoundTripStream: writeCSR2 then the streaming readCSR2 is the
// identity on the logical graph, from both flat and compressed inputs,
// and the result is compressed.
func TestCSR2RoundTripStream(t *testing.T) {
	flat := csr2TestGraph(t)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*graph.Graph{flat, comp} {
		var buf bytes.Buffer
		if err := writeCSR2(&buf, src); err != nil {
			t.Fatal(err)
		}
		g2, err := readCSR2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !g2.Compressed() {
			t.Fatal("CSR2 load is not compressed")
		}
		graphsEqual(t, flat, g2)
	}
}

// TestCSR2ByteStability: writing the flat graph and its compressed twin
// yields byte-identical snapshots — the format is a pure function of the
// logical graph.
func TestCSR2ByteStability(t *testing.T) {
	flat := csr2TestGraph(t)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := writeCSR2(&a, flat); err != nil {
		t.Fatal(err)
	}
	if err := writeCSR2(&b, comp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("flat-sourced and compressed-sourced CSR2 bytes differ")
	}
}

// TestCSR2RoundTripWeighted covers the weights section.
func TestCSR2RoundTripWeighted(t *testing.T) {
	g, err := graph.Build(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 0}},
		graph.BuildOptions{Weights: []int64{3, 7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr2")
	if err := WriteCSR2File(path, g); err != nil {
		t.Fatal(err)
	}
	g2, closer, err := OpenCSR2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	graphsEqual(t, g, g2)
}

// TestCSR2MmapLoad: the zero-copy loader agrees with the streaming reader
// and with the in-memory compressed twin, including a checked O(E) audit
// of the mapped varint stream.
func TestCSR2MmapLoad(t *testing.T) {
	flat := csr2TestGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr2")
	if err := WriteCSR2File(path, flat); err != nil {
		t.Fatal(err)
	}
	g2, closer, err := OpenCSR2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !g2.Compressed() {
		t.Fatal("OpenCSR2 result is not compressed")
	}
	if err := g2.VerifyCompressed(); err != nil {
		t.Fatalf("mapped stream fails verification: %v", err)
	}
	graphsEqual(t, flat, g2)
	streamed, err := readCSR2File(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, streamed, g2)
}

// TestCSR2SectionsPageAligned pins the layout contract: every section
// starts on a csr2Align boundary.
func TestCSR2SectionsPageAligned(t *testing.T) {
	offs, coff, blob, w, _ := csr2Layout(12345, 67890, 99999, true)
	for name, off := range map[string]int64{"offsets": offs, "coff": coff, "blob": blob, "weights": w} {
		if off%csr2Align != 0 {
			t.Fatalf("%s section at %d, not %d-aligned", name, off, csr2Align)
		}
	}
}

// TestCSR2RejectsCorruption: truncation, bad magic, flipped header sizes,
// trailing bytes and the retired directed flag are typed CorruptErrors on
// both load paths.
func TestCSR2RejectsCorruption(t *testing.T) {
	flat := csr2TestGraph(t)
	var buf bytes.Buffer
	if err := writeCSR2(&buf, flat); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		mutated := mutate(append([]byte{}, data...))
		var ce *CorruptError
		if _, err := readCSR2(bytes.NewReader(mutated)); !errors.As(err, &ce) {
			t.Fatalf("%s: streaming read gave %v, want CorruptError", name, err)
		}
		path := filepath.Join(dir, name+".csr2")
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		g, closer, err := OpenCSR2(path)
		if err == nil {
			closer.Close()
			t.Fatalf("%s: OpenCSR2 accepted corrupt file (graph %v)", name, g)
		}
		if !errors.As(err, &ce) {
			t.Fatalf("%s: OpenCSR2 gave %v, want CorruptError", name, err)
		}
	}
	check("badmagic", func(b []byte) []byte { b[0] = 'X'; return b })
	check("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	check("trailing", func(b []byte) []byte { return append(b, 0xEE) })
	check("hugesizes", func(b []byte) []byte {
		b[23] = 0xFF // n's top byte -> implausible
		return b
	})
	check("shortheader", func(b []byte) []byte { return b[:12] })
	check("directed", func(b []byte) []byte { b[8] |= flagDigraph; return b })
}

// TestOpenAutoDetects: Open dispatches on content — CSR1, CSR2, gzipped
// CSR2, DIMACS text, and plain edge lists — regardless of extension.
func TestOpenAutoDetects(t *testing.T) {
	flat := csr2TestGraph(t)
	dir := t.TempDir()

	write := func(name string, fill func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Every file gets a deliberately unhelpful extension.
	csr1 := write("a.dat", func(f *os.File) error { return writeBinary(f, flat) })
	csr2 := write("b.dat", func(f *os.File) error { return writeCSR2(f, flat) })
	csr2gz := write("c.dat", func(f *os.File) error {
		gz := gzip.NewWriter(f)
		if err := writeCSR2(gz, flat); err != nil {
			return err
		}
		return gz.Close()
	})
	dimacs := write("d.dat", func(f *os.File) error {
		return WriteDIMACS(f, flat, "auto-detect fixture")
	})
	el := write("e.dat", func(f *os.File) error {
		return WriteEdgeList(f, flat)
	})

	// An edge list stores no vertex count, so trailing isolated vertices
	// do not survive it; the expectation for that case is its own parse.
	var elBuf bytes.Buffer
	if err := WriteEdgeList(&elBuf, flat); err != nil {
		t.Fatal(err)
	}
	elWant, err := readEdgeList(&elBuf)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
		want       *graph.Graph
		compressed bool
	}{
		{"csr1", csr1, flat, false},
		{"csr2", csr2, flat, true},
		{"csr2.gz", csr2gz, flat, true},
		{"dimacs", dimacs, flat, false},
		{"edgelist", el, elWant, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, closer, err := Open(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			if g.Compressed() != tc.compressed {
				t.Fatalf("Compressed() = %v, want %v", g.Compressed(), tc.compressed)
			}
			graphsEqual(t, tc.want, g)
		})
	}
}
