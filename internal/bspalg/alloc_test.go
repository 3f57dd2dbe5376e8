package bspalg

import (
	"runtime"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// TestSecondRunAllocBudget: the engine's message-volume memory — the unicast
// log's blocks, the inbox values — is lent from run to run (core's arena),
// so a second triangle count on the same graph in one process allocates
// next to nothing (it was ~690 MiB when every run grew, concatenated and
// zeroed its own buffers), and a sync.Pool decides how long the arena
// lives, so two collections after the last run the process holds no more
// than before the first.
func TestSecondRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	g, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceTriangles(g)
	var before, first, second, after runtime.MemStats
	run := func(into *runtime.MemStats) {
		tc, err := Triangles(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.Count != want {
			t.Fatalf("%d triangles, reference %d", tc.Count, want)
		}
		runtime.ReadMemStats(into)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(&first)
	run(&second)
	const mib = 1 << 20
	firstAlloc, secondAlloc := first.TotalAlloc-before.TotalAlloc, second.TotalAlloc-first.TotalAlloc
	t.Logf("first run allocated %d MiB, second %d MiB", firstAlloc/mib, secondAlloc/mib)
	if secondAlloc > 16*mib {
		t.Errorf("second run allocated %d MiB, budget 16", secondAlloc/mib)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("heap in use: %d MiB before, %d MiB after the runs and two collections", before.HeapInuse/mib, after.HeapInuse/mib)
	if after.HeapInuse > before.HeapInuse+8*mib {
		t.Errorf("heap in use %d MiB after the runs and two collections, %d MiB before: the pool holds on to its blocks",
			after.HeapInuse/mib, before.HeapInuse/mib)
	}
}

// TestSecondRunAllocatesItsAnswer: everything a run sizes by n or by its
// traffic, and what it derives from the graph alone, is lent from the last
// run (core's arena), so a second BFS, CC or PageRank on the same graph
// allocates its answer — the Result's states, and PageRank's ranks beside
// them — and little more: at most 2·8n bytes and 256 KiB.
func TestSecondRunAllocatesItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	g, err := gen.RMAT(gen.RMATConfig{Scale: 16, EdgeFactor: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, k := range []struct {
		name string
		run  func() error
	}{
		{"bfs", func() error { _, err := BFS(g, g.MaxDegreeVertex(), nil); return err }},
		{"cc", func() error { _, err := ConnectedComponents(g, nil); return err }},
		{"pagerank", func() error { _, err := PageRank(g, 10, nil); return err }},
	} {
		if err := k.run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := k.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got, budget := int64(after.TotalAlloc-before.TotalAlloc), 2*8*n+256<<10
		t.Logf("%s: the second run allocated %d B, %.2f x 8n", k.name, got, float64(got)/float64(8*n))
		if got > budget {
			t.Errorf("%s: the second run allocated %d B (%.2f x 8n), budget %d B", k.name, got, float64(got)/float64(8*n), budget)
		}
	}
}
