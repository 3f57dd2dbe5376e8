package graph500

import (
	"errors"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
)

// rmat builds the scale-10, edge-factor-8 RMAT graph of seed 5.
func rmat(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunSharedMemory(t *testing.T) {
	res, err := RunOnGraph(rmat(t), Config{SearchKeys: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Validated != len(res.Keys) || len(res.Keys) != 8 {
		t.Fatalf("validated %d of %d keys", res.Validated, len(res.Keys))
	}
	if res.HarmonicMeanTEPS <= 0 {
		t.Fatalf("harmonic TEPS = %v", res.HarmonicMeanTEPS)
	}
	if res.MinTEPS > res.MedianTEPS || res.MedianTEPS > res.MaxTEPS {
		t.Fatalf("TEPS ordering broken: %v %v %v", res.MinTEPS, res.MedianTEPS, res.MaxTEPS)
	}
	// Harmonic mean lies within [min, max].
	if res.HarmonicMeanTEPS < res.MinTEPS || res.HarmonicMeanTEPS > res.MaxTEPS {
		t.Fatalf("harmonic mean %v outside [%v, %v]", res.HarmonicMeanTEPS, res.MinTEPS, res.MaxTEPS)
	}
}

func TestRunBSPSlowerThanSharedMemory(t *testing.T) {
	g := rmat(t)
	shared, err := RunOnGraph(g, Config{SearchKeys: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := RunOnGraph(g, Config{SearchKeys: 4, Seed: 5, BSP: true})
	if err != nil {
		t.Fatal(err)
	}
	if bsp.HarmonicMeanTEPS >= shared.HarmonicMeanTEPS {
		t.Fatalf("bsp TEPS %v >= shared %v", bsp.HarmonicMeanTEPS, shared.HarmonicMeanTEPS)
	}
	// The paper's envelope: within a factor of ~10-20.
	if shared.HarmonicMeanTEPS > 25*bsp.HarmonicMeanTEPS {
		t.Fatalf("bsp %v vs shared %v: gap too large", bsp.HarmonicMeanTEPS, shared.HarmonicMeanTEPS)
	}
}

// TestRunOnGraphTakesOptions: the BSP searches run under the caller's
// engine options, and a failing one names its key.
func TestRunOnGraphTakesOptions(t *testing.T) {
	g := rmat(t)
	if _, err := RunOnGraph(g, Config{SearchKeys: 2, Seed: 5}, core.WithRunTimeout(time.Nanosecond)); err != nil {
		t.Fatalf("GraphCT searches take no engine options, but failed: %v", err)
	}
	_, err := RunOnGraph(g, Config{SearchKeys: 2, Seed: 5, BSP: true}, core.WithRunTimeout(time.Nanosecond))
	var te *core.TimeoutError
	if !errors.As(err, &te) || !strings.HasPrefix(err.Error(), "graph500: key ") {
		t.Fatalf("error %v, want a *core.TimeoutError naming the key", err)
	}
}

func TestSampleKeysProperties(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := SampleKeys(g, 16, 7)
	if len(keys) != 16 {
		t.Fatalf("keys = %d", len(keys))
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if g.Degree(k) == 0 {
			t.Fatalf("key %d has degree 0", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	// Deterministic.
	again := SampleKeys(g, 16, 7)
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	// Empty graph.
	empty := graph.MustBuild(0, nil, graph.BuildOptions{})
	if got := SampleKeys(empty, 4, 1); got != nil {
		t.Fatalf("keys from empty graph: %v", got)
	}
	// All-isolated graph terminates with no keys.
	iso := graph.MustBuild(8, nil, graph.BuildOptions{})
	if got := SampleKeys(iso, 4, 1); len(got) != 0 {
		t.Fatalf("keys from isolated graph: %v", got)
	}
}

func TestDeriveParentsAndValidate(t *testing.T) {
	g := gen.Grid(4, 4)
	dist := graphct.BFS(g, 0, nil).Dist
	parent := DeriveParents(g, 0, dist)
	if err := Validate(g, 0, dist, parent); err != nil {
		t.Fatal(err)
	}
	if parent[0] != 0 {
		t.Fatalf("root parent = %d", parent[0])
	}
	for v := int64(1); v < g.NumVertices(); v++ {
		if parent[v] < 0 {
			t.Fatalf("vertex %d unparented in a connected graph", v)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := gen.Ring(8)
	dist := graphct.BFS(g, 0, nil).Dist
	parent := DeriveParents(g, 0, dist)

	cases := []struct {
		name    string
		corrupt func(d, p []int64)
		wantSub string
	}{
		{"root-distance", func(d, p []int64) { d[0] = 1 }, "root"},
		{"root-parent", func(d, p []int64) { p[0] = 3 }, "root"},
		{"level-skip", func(d, p []int64) { d[2] = 5 }, "levels"},
		{"fake-unreached", func(d, p []int64) { d[4] = -1 }, ""},
		{"tree-edge-missing", func(d, p []int64) { p[2] = 6 }, "not in graph"},
		{"tree-without-reach", func(d, p []int64) { p[3] = -1 }, "inTree"},
	}
	for _, c := range cases {
		d := append([]int64(nil), dist...)
		p := append([]int64(nil), parent...)
		c.corrupt(d, p)
		err := Validate(g, 0, d, p)
		if err == nil {
			t.Fatalf("%s: corruption not detected", c.name)
		}
		if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s: error %q missing %q", c.name, err, c.wantSub)
		}
	}
}

func TestValidateDisconnected(t *testing.T) {
	// Two components: unreached vertices must be consistently absent.
	g := graph.MustBuild(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}},
		graph.BuildOptions{})
	dist := graphct.BFS(g, 0, nil).Dist
	parent := DeriveParents(g, 0, dist)
	if err := Validate(g, 0, dist, parent); err != nil {
		t.Fatal(err)
	}
	for v := int64(3); v < 6; v++ {
		if parent[v] != -1 || dist[v] != -1 {
			t.Fatalf("vertex %d should be unreached", v)
		}
	}
}

func TestRunOnGraphDeterministic(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOnGraph(g, Config{SearchKeys: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnGraph(g, Config{SearchKeys: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.HarmonicMeanTEPS != b.HarmonicMeanTEPS {
		t.Fatal("TEPS not deterministic")
	}
}
