package graphio

// GXMTCSR2: the compressed, memory-mappable CSR snapshot. Where GXMTCSR1
// streams the flat in-memory arrays, CSR2 stores the delta-varint
// compressed adjacency (graph/compressed.go) with every section placed at
// a page-aligned offset, so a loader can mmap the file read-only and hand
// the engine zero-copy views of the arrays — load time is O(1) in the
// edge count, and the adjacency bytes stay page-cache-resident and shared
// across processes.
//
// Layout (all integers little-endian):
//
//	[0, 40)        header: magic "GXMTCSR2", then u64 flags, n, m, blobLen
//	[40, 4096)     zero padding
//	page-aligned   offsets: (n+1) int64 — the degree prefix sum
//	page-aligned   coff:    (n+1) int64 — byte offsets into blob
//	page-aligned   blob:    blobLen bytes of delta-varint adjacency
//	page-aligned   weights: m int64, present iff flagWeighted
//
// Each section starts at the next multiple of csr2Align after the
// previous one ends; the file ends where the last section ends (no
// trailing pad). The varint stream is trusted from the format's contract
// (offsets/coff shape is re-validated on load in O(n); use
// graph.VerifyCompressed for a full O(E) audit) — a corrupt stream
// surfaces as a typed graph.DecodeError at decode time, never a panic.

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"graphxmt/internal/graph"
)

// errNoMmap is the build-tagged mmapFile's signal that the platform has
// no (little-endian) mmap path; loaders fall back to a streaming read.
var errNoMmap = errors.New("graphio: mmap unavailable")

// int64View reinterprets count int64s at byte offset off of data without
// copying. Only called over page-aligned sections of a validated CSR2
// image on little-endian mmap platforms.
func int64View(data []byte, off, count int64) []int64 {
	if count == 0 {
		return make([]int64, 0)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), count)
}

var magic2 = [8]byte{'G', 'X', 'M', 'T', 'C', 'S', 'R', '2'}

const (
	// csr2Align is the section alignment: one page on every platform the
	// toolchain targets, so mmap'd section offsets are valid int64 slices.
	csr2Align = 4096
	// csr2Header is the byte length of the header fields before padding.
	csr2Header = 8 + 4*8
)

// csr2Pad returns the zero-padding needed to advance off to the next
// csr2Align boundary.
func csr2Pad(off int64) int64 {
	return (csr2Align - off%csr2Align) % csr2Align
}

// csr2Layout computes the section offsets for a graph of n vertices, m
// edges, and blobLen adjacency bytes. The returned total is the file size.
func csr2Layout(n, m, blobLen int64, weighted bool) (offsetsOff, coffOff, blobOff, weightsOff, total int64) {
	off := int64(csr2Header)
	off += csr2Pad(off)
	offsetsOff = off
	off += (n + 1) * 8
	off += csr2Pad(off)
	coffOff = off
	off += (n + 1) * 8
	off += csr2Pad(off)
	blobOff = off
	off += blobLen
	if weighted {
		off += csr2Pad(off)
		weightsOff = off
		off += m * 8
	}
	return offsetsOff, coffOff, blobOff, weightsOff, off
}

// writeCSR2 writes g as a compressed memory-mappable snapshot. A flat
// graph is compressed first (which requires sorted adjacency); a
// compressed graph is written as-is.
func writeCSR2(w io.Writer, g *graph.Graph) error {
	if !g.Compressed() {
		var err error
		if g, err = graph.Compress(g); err != nil {
			return fmt.Errorf("graphio: compressing for CSR2: %w", err)
		}
	}
	n, m := g.NumVertices(), g.NumEdges()
	blob := g.CompressedBlob()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic2[:]); err != nil {
		return err
	}
	var flags uint64
	if g.Directed() {
		flags |= flagDirected
	}
	if g.Weighted() {
		flags |= flagWeighted
	}
	for _, v := range []uint64{flags, uint64(n), uint64(m), uint64(len(blob))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	pos := int64(csr2Header)
	pad := func() error {
		k := csr2Pad(pos)
		pos += k
		for k > 0 {
			chunk := k
			if chunk > int64(len(csr2Zeros)) {
				chunk = int64(len(csr2Zeros))
			}
			if _, err := bw.Write(csr2Zeros[:chunk]); err != nil {
				return err
			}
			k -= chunk
		}
		return nil
	}
	writeSec := func(s []int64) error {
		if err := pad(); err != nil {
			return err
		}
		pos += int64(len(s)) * 8
		return writeInt64s(bw, s)
	}
	if err := writeSec(g.Offsets()); err != nil {
		return err
	}
	if err := writeSec(g.CompressedOffsets()); err != nil {
		return err
	}
	if err := pad(); err != nil {
		return err
	}
	pos += int64(len(blob))
	if _, err := bw.Write(blob); err != nil {
		return err
	}
	if g.Weighted() {
		if err := writeSec(g.Weights()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

var csr2Zeros [csr2Align]byte

// WriteCSR2File writes g to path as a compressed snapshot.
func WriteCSR2File(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeCSR2(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csr2Header fields parsed from the first page.
type csr2Hdr struct {
	flags      uint64
	n, m, blob int64
}

func parseCSR2Header(b []byte) (csr2Hdr, error) {
	var h csr2Hdr
	if len(b) < csr2Header {
		return h, &CorruptError{Section: "header", Reason: "short read"}
	}
	if [8]byte(b[:8]) != magic2 {
		return h, &CorruptError{Section: "magic", Reason: fmt.Sprintf("bad magic %q", b[:8])}
	}
	h.flags = binary.LittleEndian.Uint64(b[8:16])
	n := binary.LittleEndian.Uint64(b[16:24])
	m := binary.LittleEndian.Uint64(b[24:32])
	blob := binary.LittleEndian.Uint64(b[32:40])
	if unknown := h.flags &^ (flagDirected | flagWeighted); unknown != 0 {
		return h, &CorruptError{Section: "header", Reason: fmt.Sprintf("unknown flag bits %#x", unknown)}
	}
	const sane = 1 << 40
	if n > sane || m > sane || blob > sane {
		return h, &CorruptError{Section: "header", Reason: fmt.Sprintf("implausible sizes n=%d m=%d blob=%d", n, m, blob)}
	}
	h.n, h.m, h.blob = int64(n), int64(m), int64(blob)
	return h, nil
}

// readCSR2 reads a compressed snapshot from a byte stream — the portable
// path, used for gzip-wrapped files and platforms without mmap. The
// arrays are copied out of the stream; OpenCSR2 is the zero-copy loader.
func readCSR2(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hb [csr2Header]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return nil, &CorruptError{Section: "header", Reason: "short read", Err: err}
	}
	h, err := parseCSR2Header(hb[:])
	if err != nil {
		return nil, err
	}
	pos := int64(csr2Header)
	skipPad := func() error {
		k := csr2Pad(pos)
		pos += k
		if _, err := io.CopyN(io.Discard, br, k); err != nil {
			return &CorruptError{Section: "padding", Reason: "short read", Err: err}
		}
		return nil
	}
	readSec := func(name string, count int64) ([]int64, error) {
		if err := skipPad(); err != nil {
			return nil, err
		}
		s, err := readInt64s(br, int(count))
		if err != nil {
			return nil, &CorruptError{Section: name, Reason: "short read", Err: err}
		}
		pos += count * 8
		return s, nil
	}
	offsets, err := readSec("offsets", h.n+1)
	if err != nil {
		return nil, err
	}
	coff, err := readSec("coff", h.n+1)
	if err != nil {
		return nil, err
	}
	if err := skipPad(); err != nil {
		return nil, err
	}
	blob := make([]byte, h.blob)
	if _, err := io.ReadFull(br, blob); err != nil {
		return nil, &CorruptError{Section: "blob", Reason: "short read", Err: err}
	}
	pos += h.blob
	var weights []int64
	if h.flags&flagWeighted != 0 {
		if weights, err = readSec("weights", h.m); err != nil {
			return nil, err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, &CorruptError{Section: "trailer", Reason: "trailing bytes after snapshot"}
	}
	g, err := graph.FromCompressedCSR(h.n, offsets, coff, blob, weights, h.flags&flagDirected != 0)
	if err != nil {
		return nil, &CorruptError{Section: "structure", Reason: err.Error(), Err: err}
	}
	return g, nil
}

// readCSR2File reads a compressed snapshot from path by streaming copy.
func readCSR2File(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCSR2(f)
}

// nopCloser is the Closer returned when a load holds no OS resource.
type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// OpenCSR2 loads a compressed snapshot with zero copies where the
// platform allows: on linux little-endian hosts the file is mmap'd
// read-only and the graph's arrays are views into the mapping — O(1)
// load regardless of graph size. Elsewhere it falls back to a streaming
// read. The returned Closer must be held until the graph is no longer in
// use (closing it unmaps the arrays); it is a no-op on the fallback path.
func OpenCSR2(path string) (*graph.Graph, io.Closer, error) {
	data, closer, err := mmapFile(path)
	if err == errNoMmap {
		g, rerr := readCSR2File(path)
		return g, nopCloser{}, rerr
	}
	if err != nil {
		return nil, nil, err
	}
	g, err := csr2FromMapping(data)
	if err != nil {
		closer.Close()
		return nil, nil, err
	}
	return g, closer, nil
}

// csr2FromMapping builds the graph over an mmap'd (or fully read) file
// image without copying the arrays.
func csr2FromMapping(data []byte) (*graph.Graph, error) {
	h, err := parseCSR2Header(data)
	if err != nil {
		return nil, err
	}
	offsetsOff, coffOff, blobOff, weightsOff, total := csr2Layout(h.n, h.m, h.blob, h.flags&flagWeighted != 0)
	if int64(len(data)) != total {
		return nil, &CorruptError{Section: "trailer",
			Reason: fmt.Sprintf("file is %d bytes, layout needs %d", len(data), total)}
	}
	offsets := int64View(data, offsetsOff, h.n+1)
	coff := int64View(data, coffOff, h.n+1)
	blob := data[blobOff : blobOff+h.blob]
	var weights []int64
	if h.flags&flagWeighted != 0 {
		weights = int64View(data, weightsOff, h.m)
	}
	g, err := graph.FromCompressedCSR(h.n, offsets, coff, blob, weights, h.flags&flagDirected != 0)
	if err != nil {
		return nil, &CorruptError{Section: "structure", Reason: err.Error(), Err: err}
	}
	return g, nil
}

// Open loads a graph from path, detecting the format from content rather
// than extension: gzip by its 2-byte magic (decompressed transparently),
// then GXMTCSR2 (mmap'd when possible), GXMTCSR1, and otherwise text —
// DIMACS if the first non-blank line starts with 'c' or 'p', else a plain
// edge list. The returned Closer owns any mapping backing the graph and
// must be held while the graph is in use; for every non-mmap path it is a
// no-op.
func Open(path string) (*graph.Graph, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(2)
	if err != nil {
		return nil, nil, &CorruptError{Section: "magic", Reason: "short read", Err: err}
	}
	gzipped := head[0] == 0x1f && head[1] == 0x8b
	if gzipped {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: opening gzip %s: %w", path, err)
		}
		defer gz.Close()
		br = bufio.NewReaderSize(gz, 1<<20)
	}
	sniff, _ := br.Peek(8)
	switch {
	case len(sniff) >= 8 && [8]byte(sniff) == magic2:
		if !gzipped {
			// Plain CSR2 file: reopen through the zero-copy loader.
			return OpenCSR2(path)
		}
		g, err := readCSR2(br)
		return g, nopCloser{}, err
	case len(sniff) >= 8 && [8]byte(sniff) == magic:
		g, err := readBinary(br)
		return g, nopCloser{}, err
	}
	g, err := readText(br)
	return g, nopCloser{}, err
}

// readText dispatches a text stream to the DIMACS or edge-list parser by
// its first non-blank, non-'#'/'%'-comment content: DIMACS files open
// with 'c' comments or the 'p' problem line.
func readText(br *bufio.Reader) (*graph.Graph, error) {
	probe, _ := br.Peek(1 << 16)
	isDIMACS := false
	for i := 0; i < len(probe); {
		j := i
		for j < len(probe) && probe[j] != '\n' {
			j++
		}
		line := probe[i:j]
		i = j + 1
		// Trim leading spaces.
		k := 0
		for k < len(line) && (line[k] == ' ' || line[k] == '\t' || line[k] == '\r') {
			k++
		}
		line = line[k:]
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue // blank or edge-list comment; keep scanning
		}
		isDIMACS = line[0] == 'c' || line[0] == 'p'
		break
	}
	if isDIMACS {
		return readDIMACS(br)
	}
	return readEdgeList(br)
}
