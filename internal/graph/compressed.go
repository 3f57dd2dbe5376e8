package graph

import (
	"encoding/binary"
	"fmt"
	"iter"

	"graphxmt/internal/par"
)

// Compressed CSR backing: sorted adjacency lists stored as delta-encoded
// varints instead of flat int64s, the GBBS-style byte compression that cuts
// graph-resident memory 2-5x on scale-free inputs at equal sweep
// throughput. The layout per vertex v is
//
//	zigzag-varint(nbr[0] - v), varint(nbr[1]-nbr[0]), varint(nbr[2]-nbr[1]), ...
//
// — the first neighbor is signed (a neighbor may precede its source), every
// later delta is positive because the list is strictly ascending. A
// parallel byte offsets array coff (len n+1, the byte prefix sum) locates
// each vertex's block in the blob, and the ordinary degree prefix sum
// (Graph.Offsets) stays uncompressed, so Degree, degree-weighted sweep
// chunking, and the direction heuristic's unvisited-edge counters work
// unchanged on either representation.

// Rep names a graph representation; CLIs expose it as -graph-rep.
type Rep string

const (
	// RepFlat is the ordinary int64 CSR (16 bytes/edge when weighted,
	// 8 bytes/edge otherwise).
	RepFlat Rep = "flat"
	// RepCompressed is the delta-varint byte-compressed CSR.
	RepCompressed Rep = "compressed"
)

// ParseRep parses a -graph-rep flag value.
func ParseRep(s string) (Rep, bool) {
	switch Rep(s) {
	case RepFlat, RepCompressed:
		return Rep(s), true
	}
	return "", false
}

// Compressed reports whether the graph stores its adjacency in the
// delta-varint compressed form.
func (g *Graph) Compressed() bool { return g.coff != nil }

// Rep returns the graph's representation name.
func (g *Graph) Rep() Rep {
	if g.Compressed() {
		return RepCompressed
	}
	return RepFlat
}

// CompressedOffsets exposes the per-vertex byte offsets into the compressed
// blob (len NumVertices+1); nil on flat graphs. Read-only.
func (g *Graph) CompressedOffsets() []int64 { return g.coff }

// CompressedBlob exposes the delta-varint adjacency bytes; nil on flat
// graphs. Read-only.
func (g *Graph) CompressedBlob() []byte { return g.blob }

// DecodeError reports a structurally invalid compressed adjacency block:
// truncation, an overlong varint, or a decoded neighbor outside [0, n).
// The checked decoder (decodeAdjacency) returns it instead of panicking or
// reading past the block, whatever bytes it is handed.
type DecodeError struct {
	// Vertex is the source vertex whose block failed.
	Vertex int64
	// Offset is the byte offset within the vertex's block.
	Offset int
	// Reason describes the violation.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("graph: corrupt adjacency of vertex %d at byte %d: %s", e.Vertex, e.Offset, e.Reason)
}

// zigzag maps a signed delta onto an unsigned varint payload so small
// negative first-neighbor offsets stay short.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded size of x (1-10 bytes).
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// decodeAdjacency is the checked decoder: it decodes exactly deg neighbors
// of src from data into buf (reusing its capacity) and validates every
// step — truncated blocks, overlong varints (more than 10 bytes or 64-bit
// overflow), neighbors outside [0, n), and trailing bytes all return a
// typed *DecodeError without panicking or reading outside data. The hot
// paths (DecodeNeighbors, NeighborDecoder) skip these checks because the
// blob is validated at construction; this entry point is for loaders,
// verification sweeps, and the fuzz harness.
func decodeAdjacency(src, n, deg int64, data []byte, buf []int64) ([]int64, error) {
	fail := func(off int, reason string) ([]int64, error) {
		return nil, &DecodeError{Vertex: src, Offset: off, Reason: reason}
	}
	if deg < 0 {
		return fail(0, fmt.Sprintf("negative degree %d", deg))
	}
	if int64(cap(buf)) < deg {
		buf = make([]int64, deg)
	}
	buf = buf[:deg]
	pos := 0
	prev := int64(0)
	for i := int64(0); i < deg; i++ {
		u, k := binary.Uvarint(data[pos:])
		if k == 0 {
			return fail(pos, "truncated varint")
		}
		if k < 0 {
			return fail(pos, "overlong varint")
		}
		if i == 0 {
			// First neighbor: zig-zag offset from the source. Bound the
			// offset before adding so src+d cannot overflow.
			d := unzigzag(u)
			if d < -src || d > n-1-src {
				return fail(pos, fmt.Sprintf("first neighbor %d+(%d) out of range [0,%d)", src, d, n))
			}
			prev = src + d
		} else {
			// Later deltas are non-negative; bound before adding so
			// prev+delta cannot overflow.
			if u > uint64(n-1-prev) {
				return fail(pos, fmt.Sprintf("delta %d from %d out of range [0,%d)", u, prev, n))
			}
			prev += int64(u)
		}
		buf[i] = prev
		pos += k
	}
	if pos != len(data) {
		return fail(pos, fmt.Sprintf("%d trailing bytes after %d neighbors", len(data)-pos, deg))
	}
	return buf, nil
}

// fastUvarint is the unchecked hot-path varint read: single-byte values
// (the overwhelming majority of deltas on a sorted scale-free graph) take
// one branch. Reads beyond the block slice bounds-check-panic rather than
// over-reading; the blob's structure is validated at construction
// (Compress, FromCompressedCSR), so that cannot happen on a valid graph.
func fastUvarint(b []byte, pos int) (uint64, int) {
	c := b[pos]
	if c < 0x80 {
		return uint64(c), pos + 1
	}
	x := uint64(c & 0x7f)
	shift := uint(7)
	for {
		pos++
		c = b[pos]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, pos + 1
		}
		shift += 7
	}
}

// DecodeNeighbors returns the adjacency list of v. On flat graphs it is
// Neighbors — the shared CSR slice, zero copy, buf unused. On compressed
// graphs it decodes into buf (reusing its capacity, growing as needed) and
// returns buf[:degree]; passing the previous call's return value amortizes
// the allocation to the run's maximum degree. Callers must not modify the
// result on flat graphs.
func (g *Graph) DecodeNeighbors(v int64, buf []int64) []int64 {
	if g.coff == nil {
		return g.adj[g.offsets[v]:g.offsets[v+1]]
	}
	deg := g.offsets[v+1] - g.offsets[v]
	if int64(cap(buf)) < deg {
		buf = make([]int64, deg)
	}
	buf = buf[:deg]
	data := g.blob[g.coff[v]:g.coff[v+1]]
	pos := 0
	var prev int64
	for i := range buf {
		u, next := fastUvarint(data, pos)
		pos = next
		if i == 0 {
			prev = v + unzigzag(u)
		} else {
			prev += int64(u)
		}
		buf[i] = prev
	}
	return buf
}

// NeighborDecoder streams the adjacency list of one vertex without
// materializing it — the decode-on-scatter path: a broadcast scatter or
// pull sweep walks edges one Next at a time, so pure-broadcast supersteps
// on a compressed graph never allocate decoded lists. The zero value is an
// exhausted decoder. On flat graphs it iterates the shared CSR slice.
type NeighborDecoder struct {
	flat []int64 // flat-representation source; nil on compressed graphs
	data []byte  // vertex's compressed block
	pos  int
	prev int64
	i    int64
	deg  int64
	src  int64
}

// NeighborDecoder returns a streaming decoder positioned at v's first
// neighbor.
func (g *Graph) NeighborDecoder(v int64) NeighborDecoder {
	if g.coff == nil {
		nbr := g.adj[g.offsets[v]:g.offsets[v+1]]
		return NeighborDecoder{flat: nbr, deg: int64(len(nbr))}
	}
	return NeighborDecoder{
		data: g.blob[g.coff[v]:g.coff[v+1]],
		deg:  g.offsets[v+1] - g.offsets[v],
		src:  v,
	}
}

// Next returns the next neighbor, or ok=false when the list is exhausted.
func (d *NeighborDecoder) Next() (int64, bool) {
	if d.i >= d.deg {
		return 0, false
	}
	if d.flat != nil {
		w := d.flat[d.i]
		d.i++
		return w, true
	}
	u, next := fastUvarint(d.data, d.pos)
	d.pos = next
	if d.i == 0 {
		d.prev = d.src + unzigzag(u)
	} else {
		d.prev += int64(u)
	}
	d.i++
	return d.prev, true
}

// Adjacent enumerates v's neighbors in adjacency order on either
// representation, decoding a compressed list as it goes: the form for a
// walk that may stop early, which DecodeNeighbors would make pay for the
// whole list.
func (g *Graph) Adjacent(v int64) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		if g.coff == nil {
			for _, w := range g.adj[g.offsets[v]:g.offsets[v+1]] {
				if !yield(w) {
					return
				}
			}
			return
		}
		d := g.NeighborDecoder(v)
		for w, ok := d.Next(); ok; w, ok = d.Next() {
			if !yield(w) {
				return
			}
		}
	}
}

// Compress returns the delta-varint compressed twin of g, sharing the
// degree prefix sum and the (flat) weight array. The encoder is the
// parallel two-pass scheme: a sizing sweep per vertex, an exclusive prefix
// sum over the byte lengths, then an encoding sweep into the final blob —
// no per-vertex allocation, deterministic output bytes. Compressing a
// compressed graph returns it unchanged. Compress cannot fail; its error
// result is kept for source compatibility.
func Compress(g *Graph) (*Graph, error) {
	if g.Compressed() {
		return g, nil
	}
	n := g.n
	coff := make([]int64, n+1)
	par.ForChunked(int(n), func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int64(vi)
			nbr := g.adj[g.offsets[v]:g.offsets[v+1]]
			var sz int64
			if len(nbr) > 0 {
				sz = int64(uvarintLen(zigzag(nbr[0] - v)))
				for i := 1; i < len(nbr); i++ {
					sz += int64(uvarintLen(uint64(nbr[i] - nbr[i-1])))
				}
			}
			coff[v] = sz
		}
	})
	total := par.ExclusivePrefixSum(coff[:n])
	coff[n] = total
	blob := make([]byte, total)
	par.ForChunked(int(n), func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int64(vi)
			nbr := g.adj[g.offsets[v]:g.offsets[v+1]]
			if len(nbr) == 0 {
				continue
			}
			pos := coff[v]
			pos += int64(binary.PutUvarint(blob[pos:coff[v+1]], zigzag(nbr[0]-v)))
			for i := 1; i < len(nbr); i++ {
				pos += int64(binary.PutUvarint(blob[pos:coff[v+1]], uint64(nbr[i]-nbr[i-1])))
			}
		}
	})
	return &Graph{
		n:       n,
		offsets: g.offsets,
		weights: g.weights,
		maxDeg:  g.maxDeg,
		maxDegV: g.maxDegV,
		coff:    coff,
		blob:    blob,
	}, nil
}

// Decompress returns the flat twin of a compressed graph (sharing offsets
// and weights); a flat graph is returned unchanged.
func Decompress(g *Graph) *Graph {
	if !g.Compressed() {
		return g
	}
	adj := make([]int64, g.offsets[g.n])
	par.ForChunked(int(g.n), func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int64(vi)
			g.DecodeNeighbors(v, adj[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]])
		}
	})
	return &Graph{
		n:       g.n,
		offsets: g.offsets,
		adj:     adj,
		weights: g.weights,
		maxDeg:  g.maxDeg,
		maxDegV: g.maxDegV,
	}
}

// WithRep converts g to the requested representation (no-op when it is
// already there).
func WithRep(g *Graph, rep Rep) (*Graph, error) {
	switch rep {
	case RepFlat:
		return Decompress(g), nil
	case RepCompressed:
		return Compress(g)
	}
	return nil, fmt.Errorf("graph: unknown representation %q", rep)
}

// FromCompressedCSR constructs a compressed Graph from its stored arrays,
// taking ownership of the slices — the zero-copy entry point the GXMTCSR2
// mmap loader uses. Validation is strictly O(n) (shape, monotonicity, and
// per-vertex byte-count bounds): the blob's varint stream is NOT decoded,
// so loading stays an open+map regardless of edge count. Run
// VerifyCompressed for the full O(E) checked decode, which also checks
// that every list is strictly ascending and loop-free.
func FromCompressedCSR(n int64, offsets, coff []int64, blob []byte, weights []int64) (*Graph, error) {
	g := &Graph{
		n:       n,
		offsets: offsets,
		weights: weights,
		coff:    coff,
		blob:    blob,
	}
	if g.coff == nil {
		g.coff = make([]int64, 1)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.computeMaxDegree()
	return g, nil
}

// VerifyCompressed runs the checked decoder over every vertex of a
// compressed graph — the O(E) integrity sweep FromCompressedCSR skips. It
// returns the first *DecodeError — a corrupt block, or a list that is not
// strictly ascending or holds its own vertex — or nil. On flat graphs it
// returns nil.
func (g *Graph) VerifyCompressed() error {
	if !g.Compressed() {
		return nil
	}
	var buf []int64
	for v := int64(0); v < g.n; v++ {
		deg := g.offsets[v+1] - g.offsets[v]
		nbr, err := decodeAdjacency(v, g.n, deg, g.blob[g.coff[v]:g.coff[v+1]], buf)
		if err != nil {
			return err
		}
		buf = nbr[:0]
		if reason := listFault(v, nbr); reason != "" {
			return &DecodeError{Vertex: v, Offset: 0, Reason: reason}
		}
	}
	return nil
}

// validateCompressed is the O(n) structural check for the compressed
// representation (called from Validate): offsets and coff shapes, byte
// counts consistent with degrees (a degree-d block is 1-10 bytes per
// neighbor, zero iff d is zero), and the weight array parallel to the
// decoded adjacency.
func (g *Graph) validateCompressed() error {
	if int64(len(g.coff)) != g.n+1 {
		return fmt.Errorf("graph: compressed offsets len %d, want %d", len(g.coff), g.n+1)
	}
	if g.coff[0] != 0 {
		return fmt.Errorf("graph: compressed offsets[0] = %d, want 0", g.coff[0])
	}
	if g.coff[g.n] != int64(len(g.blob)) {
		return fmt.Errorf("graph: compressed offsets[n] = %d, want blob length %d", g.coff[g.n], len(g.blob))
	}
	for v := int64(0); v < g.n; v++ {
		deg := g.offsets[v+1] - g.offsets[v]
		bytes := g.coff[v+1] - g.coff[v]
		if bytes < 0 {
			return fmt.Errorf("graph: compressed offsets decrease at %d", v)
		}
		// Every encoded neighbor is 1-10 bytes; an empty list is 0 bytes.
		if bytes < deg || bytes > 10*deg {
			return fmt.Errorf("graph: vertex %d has %d compressed bytes for degree %d", v, bytes, deg)
		}
	}
	if g.weights != nil && int64(len(g.weights)) != g.offsets[g.n] {
		return fmt.Errorf("graph: weights len %d != edge count %d", len(g.weights), g.offsets[g.n])
	}
	return nil
}
