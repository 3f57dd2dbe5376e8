package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"

	"graphxmt/internal/graph"
)

// hasher fingerprints outputs with FNV-64a. Outputs are compared exactly
// against the oracle inside one process; hashes exist so that two
// processes (flat and compressed, or two runs) can be compared afterwards.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) uint64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) int64s(s []int64) {
	for _, v := range s {
		h.uint64(uint64(v))
	}
}

func (h *hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

func hashInt64s(s []int64) string {
	h := newHasher()
	h.int64s(s)
	return h.sum()
}

// graphHash fingerprints a graph's structure — vertex count, every degree
// and every neighbour in order — independent of representation, so a
// loaded or mmap'd fixture can be checked against the graph it was
// written from.
func graphHash(g *graph.Graph) string {
	h := newHasher()
	n := g.NumVertices()
	h.uint64(uint64(n))
	var buf []int64
	for v := int64(0); v < n; v++ {
		buf = g.DecodeNeighbors(v, buf)
		h.uint64(uint64(len(buf)))
		h.int64s(buf)
	}
	return h.sum()
}

// samePartition reports whether two labelings induce the same partition of
// the vertices, whatever label each component carries.
func samePartition(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int64]int64{}, map[int64]int64{}
	for v := range a {
		if l, ok := ab[a[v]]; ok && l != b[v] {
			return false
		}
		if l, ok := ba[b[v]]; ok && l != a[v] {
			return false
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true
}

// highestDegree returns the want keys of highest degree, highest first,
// ties in key order.
func highestDegree(g *graph.Graph, keys []int64, want int) []int64 {
	out := slices.Clone(keys)
	slices.SortStableFunc(out, func(a, b int64) int { return cmp.Compare(g.Degree(b), g.Degree(a)) })
	return out[:min(want, len(out))]
}
