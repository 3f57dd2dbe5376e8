package bspalg

import (
	"runtime"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// TestSecondRunAllocBudget: the engine's message-volume memory — the unicast
// log's blocks, the inbox values — is pooled across runs, so a second
// triangle count on the same graph in one process allocates next to nothing
// (it was ~690 MiB when every run grew, concatenated and zeroed its own
// buffers), and the pool is a sync.Pool, so two collections after the last
// run the process holds no more than before the first.
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
