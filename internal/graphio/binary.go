// Package graphio reads and writes graphs in two formats, mirroring
// GraphCT's "graph data-file input and output" capability:
//
//   - A binary CSR snapshot ("GXMTCSR1"): the exact in-memory representation
//     with a small header, suited to large generated graphs that are reused
//     across experiment runs.
//   - A DIMACS-style text format: "c" comment lines, a "p edge <n> <m>"
//     problem line, and "e <u> <v> [w]" edge lines with 1-based vertex IDs,
//     for interchange with other tools and for small hand-written graphs.
package graphio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"graphxmt/internal/graph"
)

// magic identifies the binary CSR snapshot format, version 1.
var magic = [8]byte{'G', 'X', 'M', 'T', 'C', 'S', 'R', '1'}

const (
	// flagDigraph is the header bit that marked a directed graph. A graph
	// is always undirected, so a file with it set is refused (errDigraph).
	flagDigraph = 1 << iota
	flagWeighted
)

// errDigraph is the refusal of a snapshot whose header sets flagDigraph.
var errDigraph = &CorruptError{Section: "header", Reason: "directed flag set: a graph must be undirected"}

// writeBinary writes g as a binary CSR snapshot. The snapshot is the flat
// representation: a compressed graph is written through its flat twin
// (WriteCSR2File persists the compressed form).
func writeBinary(w io.Writer, g *graph.Graph) error {
	if g.Compressed() {
		g = graph.Decompress(g)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var flags uint64
	if g.Weighted() {
		flags |= flagWeighted
	}
	hdr := []uint64{flags, uint64(g.NumVertices()), uint64(g.NumEdges())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeInt64s(bw, g.Offsets()); err != nil {
		return err
	}
	if err := writeInt64s(bw, g.Adjacency()); err != nil {
		return err
	}
	if g.Weighted() {
		// The flat weight array is exactly the per-vertex weight slices
		// concatenated in vertex order — one pass, no per-vertex calls.
		if err := writeInt64s(bw, g.Weights()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeInt64s writes s as little-endian bytes, converted 32 KiB at a time
// over a re-sliced source/destination pair, so w sees one call per block
// rather than one per value.
func writeInt64s(w io.Writer, s []int64) error {
	var buf [1 << 15]byte
	for len(s) > 0 {
		blk := s[:min(len(s), len(buf)/8)]
		out := buf[:8*len(blk)]
		for i, x := range blk {
			binary.LittleEndian.PutUint64(out[8*i:8*i+8], uint64(x))
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		s = s[len(blk):]
	}
	return nil
}

// readBinary reads a binary CSR snapshot written by writeBinary. Any
// defect in the stream — bad magic, unknown flags, implausible sizes,
// truncation, trailing garbage, or CSR arrays that fail the structural
// invariants (monotone offsets, in-range adjacency, matching weights,
// strictly ascending loop-free lists, symmetry) or set the directed flag —
// is reported as a *CorruptError naming the offending section.
func readBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return nil, &CorruptError{Section: "magic", Reason: "short read", Err: err}
	}
	if gotMagic != magic {
		return nil, &CorruptError{Section: "magic", Reason: fmt.Sprintf("bad magic %q", gotMagic[:])}
	}
	var flags, n, m uint64
	for _, p := range []*uint64{&flags, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, &CorruptError{Section: "header", Reason: "short read", Err: err}
		}
	}
	if flags&flagDigraph != 0 {
		return nil, errDigraph
	}
	if unknown := flags &^ flagWeighted; unknown != 0 {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("unknown flag bits %#x", unknown)}
	}
	const sane = 1 << 40
	if n > sane || m > sane {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("implausible sizes n=%d m=%d", n, m)}
	}
	offsets, err := readInt64s(br, int(n)+1)
	if err != nil {
		return nil, &CorruptError{Section: "offsets", Reason: "short read", Err: err}
	}
	adj, err := readInt64s(br, int(m))
	if err != nil {
		return nil, &CorruptError{Section: "adjacency", Reason: "short read", Err: err}
	}
	var weights []int64
	if flags&flagWeighted != 0 {
		if weights, err = readInt64s(br, int(m)); err != nil {
			return nil, &CorruptError{Section: "weights", Reason: "short read", Err: err}
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, &CorruptError{Section: "trailer", Reason: "trailing bytes after snapshot"}
	}
	g, err := graph.FromCSR(int64(n), offsets, adj, weights)
	if err != nil {
		return nil, &CorruptError{Section: "structure", Reason: err.Error(), Err: err}
	}
	return g, nil
}

func readInt64s(r io.Reader, n int) ([]int64, error) {
	// Grow as bytes arrive rather than trusting the header's count: a
	// corrupt header cannot force an allocation larger than twice the bytes
	// the stream has actually delivered. Doubling (append's own factor for
	// large slices is 1.25, which copies the array four times over) and one
	// grow check per buffer rather than an append per value.
	s := make([]int64, 0, min(n, 1<<16))
	buf := make([]byte, 8*4096)
	for len(s) < n {
		want := min((n-len(s))*8, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, err
		}
		at, end := len(s), len(s)+want/8
		if end > cap(s) {
			s = slices.Grow(s, min(n, max(end, 2*cap(s)))-at)
		}
		s = s[:end]
		for j := range s[at:] {
			s[at+j] = int64(binary.LittleEndian.Uint64(buf[8*j:]))
		}
	}
	return s, nil
}

// WriteBinaryFile writes g to path as a binary snapshot.
func WriteBinaryFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a graph from path, choosing the format by extension:
// ".dimacs" and ".txt" parse as DIMACS text, ".el"/".edges" as a plain
// edge list, anything else as the binary snapshot. A trailing ".gz" on any
// of these decompresses transparently. The cmd/ tools share this loader.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	base := path
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("graphio: opening gzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
		base = strings.TrimSuffix(path, ".gz")
	}
	switch {
	case strings.HasSuffix(base, ".dimacs") || strings.HasSuffix(base, ".txt"):
		return readDIMACS(r)
	case strings.HasSuffix(base, ".el") || strings.HasSuffix(base, ".edges"):
		return readEdgeList(r)
	}
	return readBinary(r)
}
