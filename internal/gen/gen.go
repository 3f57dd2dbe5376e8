// Package gen generates the synthetic input graphs used by the paper's
// experiments and by the examples.
//
// The paper's workload is an undirected scale-free RMAT graph [Chakrabarti,
// Zhan, Faloutsos 2004] with 2^24 vertices and 268M edges; RMAT here uses
// the Graph500 parameters (a=0.57, b=0.19, c=0.19, d=0.05) with parameter
// noise per recursion level, like the Graph500 reference generator. The
// package also provides Erdős–Rényi and Watts–Strogatz generators (the
// paper's background section frames real-world graphs against small-world
// models) plus deterministic structured graphs for tests.
//
// All generators are deterministic functions of their seed: each edge is
// derived from an independent PRNG stream seeded by rng.Mix64(seed, index),
// so generation order and host parallelism never change the output.
package gen

import (
	"fmt"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
	"graphxmt/internal/rng"
)

// RMATConfig parameterizes the recursive matrix generator.
type RMATConfig struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the number of undirected edges per vertex; the paper's
	// graph uses 16 (2^24 vertices, 268M ~= 16 * 2^24 edges).
	EdgeFactor int
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). Zero values
	// select the Graph500 defaults 0.57/0.19/0.19.
	A, B, C float64
	// Noise perturbs the parameters at every recursion level, +-Noise*U,
	// which prevents exact self-similarity; Graph500 uses 0.1. Negative
	// disables. Zero selects 0.1.
	Noise float64
	// Seed selects the deterministic edge stream.
	Seed uint64
}

func (c RMATConfig) withDefaults() RMATConfig {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	if c.Noise < 0 {
		c.Noise = 0
	}
	return c
}

// RMATEdges generates the raw RMAT edge list (with duplicates and
// self-loops, as the recursive process naturally produces them).
func RMATEdges(cfg RMATConfig) ([]graph.Edge, int64, error) {
	cfg = cfg.withDefaults()
	if cfg.Scale < 1 || cfg.Scale > 40 {
		return nil, 0, fmt.Errorf("gen: rmat scale %d out of range [1,40]", cfg.Scale)
	}
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || cfg.A+cfg.B+cfg.C >= 1 {
		return nil, 0, fmt.Errorf("gen: rmat parameters a=%v b=%v c=%v invalid", cfg.A, cfg.B, cfg.C)
	}
	n := int64(1) << uint(cfg.Scale)
	m := n * int64(cfg.EdgeFactor)
	edges := make([]graph.Edge, m)
	seedMix := rng.Mix64(cfg.Seed)
	par.ForChunked(int(m), func(lo, hi int) {
		var r rng.Xoshiro
		for i := lo; i < hi; i++ {
			r.Reseed(seedMix ^ rng.Mix64(uint64(i)+0x517cc1b727220a95))
			edges[i] = rmatEdge(r, cfg)
		}
	})
	return edges, n, nil
}

// rmatEdge draws one edge by descending the recursive quadrant matrix. It
// takes the generator by value: a local copy whose address never leaves
// the function stays in registers across the inlined draws. The edge stream
// is pinned by TestRMATGoldenStream — the draw order and every floating
// point operation here are part of the output.
func rmatEdge(r rng.Xoshiro, cfg RMATConfig) graph.Edge {
	var u, v int64
	a, b, c, scale := cfg.A, cfg.B, cfg.C, cfg.Scale
	d := 1 - a - b - c
	noise, base := cfg.Noise, 1-cfg.Noise/2
	for level := 0; level < scale; level++ {
		// Per-level parameter noise (Graph500-style): scale each parameter
		// by 1 +- Noise*U then renormalize. The fourth parameter is drawn
		// and summed but never compared against, so it is not normalized.
		na, nb, nc := a, b, c
		if noise > 0 {
			na *= base + noise*r.Float64()
			nb *= base + noise*r.Float64()
			nc *= base + noise*r.Float64()
			nd := d * (base + noise*r.Float64())
			sum := na + nb + nc + nd
			na, nb, nc = na/sum, nb/sum, nc/sum
		}
		x := r.Float64()
		u <<= 1
		v <<= 1
		// Quadrants in order: top-left (no bit), top-right (v), bottom-left
		// (u), bottom-right (both); the first bound x falls under wins. x is
		// uniform, so a branch here mispredicts every other level: select
		// the bits with flag arithmetic instead.
		ge1, ge2, ge3 := b2i(!(x < na)), b2i(!(x < na+nb)), b2i(!(x < na+nb+nc))
		u |= ge1 & ge2
		v |= ge1 & ((ge2 ^ 1) | ge3)
	}
	return graph.Edge{U: u, V: v}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// read, not a branch.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// RMAT generates an undirected RMAT graph: edges are deduplicated,
// self-loops removed, adjacency sorted (the form the paper's kernels use).
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	edges, n, err := RMATEdges(cfg)
	if err != nil {
		return nil, err
	}
	return graph.Build(n, edges, graph.BuildOptions{})
}

// ErdosRenyi generates a G(n, m) uniform random multigraph as an undirected
// simple graph (duplicates collapsed, self-loops dropped).
func ErdosRenyi(n int64, m int64, seed uint64) (*graph.Graph, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("gen: invalid ER parameters n=%d m=%d", n, m)
	}
	edges := make([]graph.Edge, m)
	seedMix := rng.Mix64(seed)
	par.ForChunked(int(m), func(lo, hi int) {
		var r rng.Xoshiro
		for i := lo; i < hi; i++ {
			r.Reseed(seedMix ^ rng.Mix64(uint64(i)+0x2545f4914f6cdd1d))
			edges[i] = graph.Edge{
				U: int64(r.Uint64n(uint64(n))),
				V: int64(r.Uint64n(uint64(n))),
			}
		}
	})
	return graph.Build(n, edges, graph.BuildOptions{})
}

// WattsStrogatz generates a small-world graph: a ring lattice of n vertices
// each connected to k nearest neighbors (k even), with each edge rewired to
// a uniform random endpoint with probability beta.
func WattsStrogatz(n int64, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if n < 3 || k < 2 || k%2 != 0 || int64(k) >= n {
		return nil, fmt.Errorf("gen: invalid WS parameters n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: invalid WS beta %v", beta)
	}
	var edges []graph.Edge
	r := rng.New(seed)
	for v := int64(0); v < n; v++ {
		for j := 1; j <= k/2; j++ {
			w := (v + int64(j)) % n
			if r.Float64() < beta {
				// Rewire the far endpoint, avoiding self-loops; duplicate
				// edges are collapsed by Build.
				w = int64(r.Uint64n(uint64(n)))
				for w == v {
					w = int64(r.Uint64n(uint64(n)))
				}
			}
			edges = append(edges, graph.Edge{U: v, V: w})
		}
	}
	return graph.Build(n, edges, graph.BuildOptions{})
}

// Ring returns the cycle graph C_n.
func Ring(n int64) *graph.Graph {
	edges := make([]graph.Edge, n)
	for v := int64(0); v < n; v++ {
		edges[v] = graph.Edge{U: v, V: (v + 1) % n}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Star returns the star graph: vertex 0 connected to 1..n-1.
func Star(n int64) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for v := int64(1); v < n; v++ {
		edges[v-1] = graph.Edge{U: 0, V: v}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Complete returns the complete graph K_n.
func Complete(n int64) *graph.Graph {
	var edges []graph.Edge
	for i := int64(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Grid returns the rows x cols 2D mesh.
func Grid(rows, cols int64) *graph.Graph {
	var edges []graph.Edge
	id := func(r, c int64) int64 { return r*cols + c }
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return graph.MustBuild(rows*cols, edges, graph.BuildOptions{})
}

// BinaryTree returns a complete binary tree with n vertices (vertex i's
// children are 2i+1 and 2i+2).
func BinaryTree(n int64) *graph.Graph {
	var edges []graph.Edge
	for v := int64(0); v < n; v++ {
		if 2*v+1 < n {
			edges = append(edges, graph.Edge{U: v, V: 2*v + 1})
		}
		if 2*v+2 < n {
			edges = append(edges, graph.Edge{U: v, V: 2*v + 2})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// CliqueChain returns k cliques of size s connected in a chain by single
// bridge edges; useful for exercising connected components and triangle
// counting together (each clique contributes C(s,3) triangles).
func CliqueChain(k, s int64) *graph.Graph {
	n := k * s
	var edges []graph.Edge
	for c := int64(0); c < k; c++ {
		base := c * s
		for i := int64(0); i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
		if c+1 < k {
			edges = append(edges, graph.Edge{U: base + s - 1, V: base + s})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Path returns the path graph P_n.
func Path(n int64) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for v := int64(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// UniformWeights returns a deterministic pseudo-random weight in [1, maxW]
// for each of m edges, for building weighted test graphs.
func UniformWeights(m int, maxW int64, seed uint64) []int64 {
	w := make([]int64, m)
	for i := range w {
		w[i] = 1 + int64(rng.Mix64(seed^uint64(i)*0x9e3779b97f4a7c15)%uint64(maxW))
	}
	return w
}

// PlantedPartition generates a planted-partition (stochastic block model)
// graph: k communities of size s; each intra-community vertex pair is an
// edge with probability pIn and each inter-community pair with probability
// pOut. With pIn >> pOut the planted communities are recoverable, which the
// community-detection tests rely on.
func PlantedPartition(k, s int64, pIn, pOut float64, seed uint64) (*graph.Graph, error) {
	if k <= 0 || s <= 0 {
		return nil, fmt.Errorf("gen: invalid partition k=%d s=%d", k, s)
	}
	if pIn < 0 || pIn > 1 || pOut < 0 || pOut > 1 {
		return nil, fmt.Errorf("gen: invalid probabilities pIn=%v pOut=%v", pIn, pOut)
	}
	n := k * s
	r := rng.New(seed)
	var edges []graph.Edge
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/s == v/s {
				p = pIn
			}
			if r.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.Build(n, edges, graph.BuildOptions{})
}

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// starting from a small clique, each new vertex attaches m edges to
// existing vertices with probability proportional to their degree. The
// second classic scale-free model beside RMAT (the paper's background
// frames real-world networks as small-world, skewed-degree graphs); useful
// for checking that results do not hinge on RMAT's particular structure.
func BarabasiAlbert(n int64, m int, seed uint64) (*graph.Graph, error) {
	if m < 1 || int64(m) >= n {
		return nil, fmt.Errorf("gen: invalid BA parameters n=%d m=%d", n, m)
	}
	r := rng.New(seed)
	// Repeated-endpoint list: picking a uniform element of targets samples
	// vertices proportionally to degree.
	var edges []graph.Edge
	targets := make([]int64, 0, 2*int(n)*m)
	// Seed clique of m+1 vertices.
	for i := int64(0); i <= int64(m); i++ {
		for j := i + 1; j <= int64(m); j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
			targets = append(targets, i, j)
		}
	}
	for v := int64(m) + 1; v < n; v++ {
		chosen := make(map[int64]bool, m)
		for len(chosen) < m {
			w := targets[r.Intn(len(targets))]
			if w != v {
				chosen[w] = true
			}
		}
		for w := range chosen {
			edges = append(edges, graph.Edge{U: v, V: w})
			targets = append(targets, v, w)
		}
	}
	return graph.Build(n, edges, graph.BuildOptions{})
}
