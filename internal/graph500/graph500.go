// Package graph500 implements a Graph500-style BFS benchmark harness over
// graphxmt's kernels. The paper motivates breadth-first search as "the
// classical graph traversal algorithm ... used in the Graph500 benchmark";
// this package follows the benchmark's structure: over a graph the caller
// built (kernel 1: construction, an RMAT graph from gen.RMAT), run BFS
// from a set of pseudo-randomly sampled search keys (kernel 2), validate every resulting BFS tree against the
// specification's checks, and report traversed-edges-per-second (TEPS)
// statistics — here under the simulated Cray XMT, for both programming
// models.
//
// Validation follows the spirit of the official specification's five
// checks, adapted to distance arrays:
//
//  1. the BFS tree is rooted at the search key (parent[root] = root);
//  2. every tree edge connects vertices whose distances differ by one;
//  3. every edge of the input graph connects vertices whose distances
//     differ by at most one (or both endpoints are unreached);
//  4. every reached vertex appears in the tree, every unreached vertex
//     does not;
//  5. every tree edge exists in the input graph.
package graph500

import (
	"fmt"
	"math"
	"sort"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/machine"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

// Config parameterizes a benchmark run.
type Config struct {
	// SearchKeys is the number of BFS roots (the benchmark uses 64).
	SearchKeys int
	// Seed drives key sampling.
	Seed uint64
	// Procs is the simulated machine size.
	Procs int
	// Model evaluates the work profiles; nil selects the analytic model.
	Model machine.Model
	// BSP selects the BSP implementation instead of the shared-memory one.
	BSP bool
}

func (c Config) withDefaults() Config {
	if c.SearchKeys == 0 {
		c.SearchKeys = 64
	}
	if c.Procs == 0 {
		c.Procs = 128
	}
	if c.Model == nil {
		c.Model = machine.NewAnalytic(machine.DefaultConfig())
	}
	return c
}

// Result is the outcome of a benchmark run.
type Result struct {
	// Keys are the BFS roots used.
	Keys []int64
	// TEPS holds traversed edges per (simulated) second for each search.
	TEPS []float64
	// HarmonicMeanTEPS is the benchmark's headline statistic.
	HarmonicMeanTEPS float64
	// MinTEPS, MedianTEPS, MaxTEPS summarize the distribution.
	MinTEPS, MedianTEPS, MaxTEPS float64
	// Validated is the number of searches that passed all checks (must
	// equal len(Keys) for a valid run).
	Validated int
}

// RunOnGraph executes kernel 2 and validation over g. The BSP searches
// run under opts.
func RunOnGraph(g *graph.Graph, cfg Config, opts ...core.Option) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{}
	res.Keys = SampleKeys(g, cfg.SearchKeys, cfg.Seed)
	if len(res.Keys) == 0 {
		return nil, fmt.Errorf("graph500: no vertices with edges to sample")
	}
	for _, key := range res.Keys {
		rec := trace.NewRecorder()
		var dist []int64
		if cfg.BSP {
			bfs, err := bspalg.BFS(g, key, rec, opts...)
			if err != nil {
				return nil, fmt.Errorf("graph500: key %d: %w", key, err)
			}
			dist = bfs.Dist
		} else {
			dist = graphct.BFS(g, key, rec).Dist
		}
		parent := DeriveParents(g, key, dist)
		if err := Validate(g, key, dist, parent); err != nil {
			return nil, fmt.Errorf("graph500: key %d: %w", key, err)
		}
		res.Validated++

		seconds := machine.Seconds(cfg.Model, rec.Phases(), cfg.Procs)
		var edges int64
		for v := int64(0); v < g.NumVertices(); v++ {
			if dist[v] >= 0 {
				edges += g.Degree(v)
			}
		}
		edges /= 2
		if seconds > 0 {
			res.TEPS = append(res.TEPS, float64(edges)/seconds)
		}
	}
	sortAndSummarize(res)
	return res, nil
}

// SampleKeys draws up to k distinct search keys with degree >= 1, as the
// specification requires, deterministically from seed.
func SampleKeys(g *graph.Graph, k int, seed uint64) []int64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	r := rng.New(rng.Mix64(seed) ^ 0x6772617068353030) // "graph500"
	seen := make(map[int64]bool, k)
	var keys []int64
	// Bound attempts so graphs with few usable vertices terminate.
	for attempts := 0; len(keys) < k && attempts < 100*k+1000; attempts++ {
		v := int64(r.Uint64n(uint64(n)))
		if g.Degree(v) > 0 && !seen[v] {
			seen[v] = true
			keys = append(keys, v)
		}
	}
	return keys
}

// DeriveParents builds a BFS tree from a distance array: each reached
// non-root vertex gets the smallest-ID neighbor one level closer. The
// root's parent is itself; unreached vertices get -1.
func DeriveParents(g *graph.Graph, root int64, dist []int64) []int64 {
	parent := make([]int64, len(dist))
	for v := range parent {
		parent[v] = -1
	}
	if root < 0 || root >= g.NumVertices() || dist[root] != 0 {
		return parent
	}
	parent[root] = root
	for v := int64(0); v < g.NumVertices(); v++ {
		if dist[v] <= 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] == dist[v]-1 {
				parent[v] = w
				break
			}
		}
	}
	return parent
}

// Validate applies the benchmark's tree checks; nil means valid.
func Validate(g *graph.Graph, root int64, dist, parent []int64) error {
	n := g.NumVertices()
	if root < 0 || root >= n {
		return fmt.Errorf("invalid root %d", root)
	}
	// (1) rooted tree.
	if parent[root] != root || dist[root] != 0 {
		return fmt.Errorf("root not self-parented at distance 0")
	}
	for v := int64(0); v < n; v++ {
		reached := dist[v] >= 0
		inTree := parent[v] >= 0
		// (4) tree membership matches reachability.
		if reached != inTree {
			return fmt.Errorf("vertex %d: reached=%v but inTree=%v", v, reached, inTree)
		}
		if !reached || v == root {
			continue
		}
		p := parent[v]
		// (5) tree edges exist in the graph.
		if !g.HasEdge(v, p) {
			return fmt.Errorf("tree edge %d-%d not in graph", v, p)
		}
		// (2) tree edges step one level.
		if dist[v] != dist[p]+1 {
			return fmt.Errorf("tree edge %d-%d skips levels (%d vs %d)", v, p, dist[v], dist[p])
		}
	}
	// (3) every graph edge spans at most one level.
	for v := int64(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			dv, dw := dist[v], dist[w]
			if (dv < 0) != (dw < 0) {
				return fmt.Errorf("edge %d-%d crosses the reached boundary", v, w)
			}
			if dv >= 0 && (dv-dw > 1 || dw-dv > 1) {
				return fmt.Errorf("edge %d-%d spans %d levels", v, w, dv-dw)
			}
		}
	}
	return nil
}

func sortAndSummarize(res *Result) {
	if len(res.TEPS) == 0 {
		return
	}
	s := append([]float64(nil), res.TEPS...)
	sort.Float64s(s)
	res.MinTEPS = s[0]
	res.MaxTEPS = s[len(s)-1]
	res.MedianTEPS = s[len(s)/2]
	var inv float64
	for _, t := range s {
		inv += 1 / t
	}
	res.HarmonicMeanTEPS = float64(len(s)) / inv
	if math.IsInf(res.HarmonicMeanTEPS, 0) || math.IsNaN(res.HarmonicMeanTEPS) {
		res.HarmonicMeanTEPS = 0
	}
}
