// Package graph provides the in-memory graph representation shared by every
// kernel in graphxmt: a compressed sparse row (CSR) structure equivalent to
// GraphCT's single, read-only graph data representation. The paper's two
// programming models (GraphCT shared-memory kernels and the BSP engine) both
// operate on this structure, exactly as the paper implements its BSP
// variants "with GraphCT in order to obtain a comparison with fewer
// variables".
//
// Vertices are identified by int64 IDs in [0, NumVertices()). Every Graph
// is undirected and simple, the paper's RMAT inputs' kind: each edge is
// stored in both adjacency lists, every list is strictly ascending, and no
// list holds its own vertex. Build establishes that; FromCSR checks it.
// NumEdges reports the number of stored entries, and UndirectedEdges
// NumEdges/2.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"graphxmt/internal/par"
)

// Edge is one endpoint pair of an edge list. An edge should appear once in
// the list; Build symmetrizes it.
type Edge struct {
	U, V int64
}

// Graph is an immutable CSR graph. The zero value is an empty graph.
//
// The adjacency is stored in one of two representations (see compressed.go):
// flat (adj holds the int64 neighbor array) or delta-varint compressed
// (coff/blob hold per-vertex byte offsets and the encoded byte stream; adj
// is nil). The degree prefix sum (offsets) and the flat weight array are
// identical in both.
type Graph struct {
	n       int64
	offsets []int64 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int64 // flat representation; nil when compressed
	weights []int64 // nil for unweighted; else parallel to the decoded adjacency
	maxDeg  int64   // memoized maximum out-degree (computed at build time)
	maxDegV int64   // first vertex of degree maxDeg (0 for an empty graph)

	// Compressed representation (nil on flat graphs): the adjacency of v is
	// the delta-varint stream blob[coff[v]:coff[v+1]].
	coff []int64 // len n+1; byte offsets into blob
	blob []byte  // delta-varint encoded adjacency
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int64 { return g.n }

// NumEdges returns the number of stored adjacency entries: twice the number
// of undirected edges.
func (g *Graph) NumEdges() int64 {
	if g.coff != nil {
		return g.offsets[g.n]
	}
	return int64(len(g.adj))
}

// UndirectedEdges returns the number of undirected edges, NumEdges/2.
func (g *Graph) UndirectedEdges() int64 { return g.NumEdges() / 2 }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int64) int64 {
	return g.offsets[v+1] - g.offsets[v]
}

// Neighbors returns the adjacency list of v. On flat graphs it is the
// shared, read-only CSR slice; callers must not modify it. On compressed
// graphs it decodes into a fresh slice — hot loops should prefer
// DecodeNeighbors (caller-owned buffer) or NeighborDecoder (streaming).
func (g *Graph) Neighbors(v int64) []int64 {
	if g.coff != nil {
		return g.DecodeNeighbors(v, nil)
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v). It panics
// on unweighted graphs.
func (g *Graph) NeighborWeights(v int64) []int64 {
	if g.weights == nil {
		panic("graph: NeighborWeights on unweighted graph")
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the edge {u, v} is stored, in O(log d).
func (g *Graph) HasEdge(u, v int64) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// Offsets exposes the CSR row offsets (len NumVertices+1). Read-only.
// Offsets is also the graph's degree prefix sum — Offsets()[v] is the total
// out-degree of vertices [0, v) — which is what the BSP engine's
// degree-weighted sweep chunking splits into near-equal edge-work chunks.
// Identical in both representations.
func (g *Graph) Offsets() []int64 { return g.offsets }

// Adjacency exposes the flat adjacency array; nil on compressed graphs
// (use NumEdges for the entry count, Neighbors/NeighborDecoder to read).
// Read-only.
func (g *Graph) Adjacency() []int64 { return g.adj }

// Weights exposes the flat weight array parallel to the (decoded)
// adjacency, or nil on unweighted graphs; identical in both
// representations. Read-only.
func (g *Graph) Weights() []int64 { return g.weights }

// MaxDegree returns the maximum out-degree, or 0 for an empty graph. The
// value is memoized at build time (Build, FromCSR), so calls are O(1).
func (g *Graph) MaxDegree() int64 { return g.maxDeg }

// MaxDegreeVertex returns the first vertex of maximum out-degree, or 0 for
// an empty graph: the default BFS source, which sits in the giant component
// of any scale-free instance. Memoized with MaxDegree.
func (g *Graph) MaxDegreeVertex() int64 { return g.maxDegV }

// computeMaxDegree scans the offsets once, then up to the first vertex of
// that degree; called by every constructor after the CSR arrays are final.
func (g *Graph) computeMaxDegree() {
	g.maxDeg = par.MaxInt64(int(g.n), 0, func(v int) int64 {
		return g.offsets[v+1] - g.offsets[v]
	})
	g.maxDegV = 0
	for v := int64(0); v < g.n; v++ {
		if g.offsets[v+1]-g.offsets[v] == g.maxDeg {
			g.maxDegV = v
			break
		}
	}
}

// AdjacencyError reports a flat adjacency list that breaks the Graph
// invariant: a neighbour repeated or out of order, or the vertex itself.
type AdjacencyError struct {
	// Vertex is the lowest vertex whose list is at fault.
	Vertex int64
	// Reason is "self-loop", "duplicate neighbour w" or "not ascending".
	Reason string
}

func (e *AdjacencyError) Error() string {
	return fmt.Sprintf("graph: adjacency of vertex %d: %s", e.Vertex, e.Reason)
}

// Validate checks structural invariants and returns the first violation.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if int64(len(g.offsets)) != g.n+1 {
		return fmt.Errorf("graph: offsets len %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for v := int64(0); v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets decrease at %d", v)
		}
	}
	if g.coff != nil {
		// Compressed representation: O(n) structural checks only — the
		// varint stream is validated by the encoder (Compress) or an
		// explicit VerifyCompressed sweep, never on the load path.
		return g.validateCompressed()
	}
	if g.offsets[g.n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[g.n], len(g.adj))
	}
	bad, faulty := g.scanAdjacency()
	if bad >= 0 {
		return fmt.Errorf("graph: adj[%d] = %d out of range", bad, g.adj[bad])
	}
	if g.weights != nil && len(g.weights) != len(g.adj) {
		return fmt.Errorf("graph: weights len %d != adj len %d", len(g.weights), len(g.adj))
	}
	if faulty >= 0 {
		return &AdjacencyError{Vertex: faulty, Reason: listFault(faulty, g.Neighbors(faulty))}
	}
	return g.checkSymmetric()
}

// listFault names what is wrong with v's adjacency list nbr — it holds v,
// or is not strictly ascending — or returns "" when nothing is.
func listFault(v int64, nbr []int64) string {
	for i, w := range nbr {
		switch {
		case w == v:
			return "self-loop"
		case i > 0 && nbr[i-1] == w:
			return fmt.Sprintf("duplicate neighbour %d", w)
		case i > 0 && nbr[i-1] > w:
			return "not ascending"
		}
	}
	return ""
}

// scanAdjacency makes one parallel pass over a flat graph's adjacency and
// returns the lowest index holding a neighbour outside [0, n) and the
// lowest vertex whose list is not strictly ascending or holds the vertex
// itself, each -1 when there is none. The offsets must already be known
// monotone and to end at len(adj).
func (g *Graph) scanAdjacency() (badIndex, faultyVertex int64) {
	var mu sync.Mutex
	badIndex, faultyVertex = -1, -1
	par.ForChunked(int(g.n), func(lo, hi int) {
		bad, faulty := int64(-1), int64(-1)
		for v := lo; v < hi; v++ {
			start, end := g.offsets[v], g.offsets[v+1]
			for i := start; i < end; i++ {
				w := g.adj[i]
				if (w < 0 || w >= g.n) && bad < 0 {
					bad = i
				}
				if (w == int64(v) || i > start && g.adj[i-1] >= w) && faulty < 0 {
					faulty = int64(v)
				}
			}
		}
		if bad < 0 && faulty < 0 {
			return
		}
		mu.Lock()
		if bad >= 0 && (badIndex < 0 || bad < badIndex) {
			badIndex = bad
		}
		if faulty >= 0 && (faultyVertex < 0 || faulty < faultyVertex) {
			faultyVertex = faulty
		}
		mu.Unlock()
	})
	return badIndex, faultyVertex
}

func (g *Graph) checkSymmetric() error {
	// Count-based symmetry check: multiset of (u,v) must equal multiset of
	// (v,u). We verify via per-pair counting with a map on small graphs and
	// via reverse-degree counting on large ones.
	if g.NumEdges() <= 1<<20 {
		count := make(map[Edge]int64, g.NumEdges())
		for v := int64(0); v < g.n; v++ {
			for _, w := range g.Neighbors(v) {
				count[Edge{v, w}]++
			}
		}
		for e, c := range count {
			if count[Edge{e.V, e.U}] != c {
				return fmt.Errorf("graph: asymmetric edge %d->%d", e.U, e.V)
			}
		}
		return nil
	}
	inDeg := make([]int64, g.n)
	for _, w := range g.adj {
		inDeg[w]++
	}
	for v := int64(0); v < g.n; v++ {
		if inDeg[v] != g.Degree(v) {
			return fmt.Errorf("graph: vertex %d in-degree %d != out-degree %d",
				v, inDeg[v], g.Degree(v))
		}
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{undirected, %d vertices, %d edges}", g.n, g.UndirectedEdges())
}
