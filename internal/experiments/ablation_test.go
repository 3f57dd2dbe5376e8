package experiments

import "testing"

func TestAblationActivation(t *testing.T) {
	g, s := testGraph(t)
	res, err := ablationActivation(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.SparseTotal >= res.FullScanTotal {
		t.Fatalf("sparse activation (%.6fs) should beat full scan (%.6fs)",
			res.SparseTotal, res.FullScanTotal)
	}
	// The gap concentrates in the low-activity tail supersteps: the final
	// superstep must shrink by more than the apex superstep does.
	last := len(res.Procs) - 1
	apex := 0
	for i := range res.FullScan {
		if res.FullScan[i][last] > res.FullScan[apex][last] {
			apex = i
		}
	}
	tail := len(res.FullScan) - 1
	if tail == apex {
		t.Skip("degenerate instance: apex is the last superstep")
	}
	apexGain := res.FullScan[apex][last] / res.Sparse[apex][last]
	tailGain := res.FullScan[tail][last] / res.Sparse[tail][last]
	if tailGain <= apexGain {
		t.Fatalf("tail gain %.2fx should exceed apex gain %.2fx (scan overhead lives in the tail)",
			tailGain, apexGain)
	}
}

func TestAblationHotspot(t *testing.T) {
	g, s := testGraph(t)
	res, err := ablationHotspot(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 (full serialization) must be slower and scale worse than the
	// largest chunk.
	first, last := 0, len(res.Chunks)-1
	if res.TimeAtMax[first] <= res.TimeAtMax[last] {
		t.Fatalf("chunk=1 time %.6f should exceed chunk=%d time %.6f",
			res.TimeAtMax[first], res.Chunks[last], res.TimeAtMax[last])
	}
	if res.Speedup[first] >= res.Speedup[last] {
		t.Fatalf("chunk=1 speedup %.2f should be below chunk=%d speedup %.2f",
			res.Speedup[first], res.Chunks[last], res.Speedup[last])
	}
	// Times must be monotone non-increasing in chunk size.
	for i := 1; i < len(res.Chunks); i++ {
		if res.TimeAtMax[i] > res.TimeAtMax[i-1]*1.0001 {
			t.Fatalf("time increased from chunk %d to %d", res.Chunks[i-1], res.Chunks[i])
		}
	}
}

func TestAblationCombiner(t *testing.T) {
	g, s := testGraph(t)
	res, err := ablationCombiner(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredCombined >= res.DeliveredPlain {
		t.Fatalf("combiner delivered %d >= plain %d", res.DeliveredCombined, res.DeliveredPlain)
	}
	if res.Plain <= 0 || res.Combined <= 0 {
		t.Fatal("times must be positive")
	}
}

func TestSensitivityMachine(t *testing.T) {
	g, s := testGraph(t)
	res, err := sensitivityMachine(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// Time is monotone non-decreasing in latency...
	for i := 1; i < len(res.LatencyTimes); i++ {
		if res.LatencyTimes[i] < res.LatencyTimes[i-1]*0.999 {
			t.Fatalf("time decreased with higher latency: %v", res.LatencyTimes)
		}
	}
	// ...and non-increasing in streams per processor.
	for i := 1; i < len(res.StreamTimes); i++ {
		if res.StreamTimes[i] > res.StreamTimes[i-1]*1.001 {
			t.Fatalf("time increased with more streams: %v", res.StreamTimes)
		}
	}
}

func TestRegimes(t *testing.T) {
	g, s := testGraph(t)
	res, err := regimes(g, s)
	if err != nil {
		t.Fatal(err)
	}
	bspCC, ctBFS := res.Kernels[0].phases, res.Kernels[3].phases
	for _, k := range res.Kernels {
		if len(k.phases) == 0 {
			t.Fatalf("%s: no diagnoses", k.title)
		}
	}
	// The first BSP CC superstep is work-dominated, not overhead.
	if bspCC[0].Regime == "overhead" {
		t.Fatalf("first superstep diagnosed as overhead: %+v", bspCC[0])
	}
	// The last BFS levels sit in a non-scaling regime (latency or
	// overhead), which is the paper's flat-tail observation.
	tail := ctBFS[len(ctBFS)-1]
	if tail.Regime == "issue-bound" {
		t.Fatalf("tail BFS level diagnosed issue-bound: %+v", tail)
	}
	for _, p := range append(bspCC, ctBFS...) {
		if p.Share < 0 || p.Share > 1.01 {
			t.Fatalf("share out of range: %+v", p)
		}
		if p.Seconds <= 0 {
			t.Fatalf("non-positive seconds: %+v", p)
		}
	}
}

func TestExtensions(t *testing.T) {
	g, s := testGraph(t)
	res, err := extensions(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BSP <= 0 || row.GraphCT <= 0 {
			t.Fatalf("%s: non-positive times", row.Algorithm)
		}
		// The paper's generalization: BSP pays a constant factor but stays
		// within roughly an order of magnitude (allow slack: betweenness
		// runs many tiny supersteps).
		if row.Ratio > 40 {
			t.Fatalf("%s: ratio %.1f far outside the envelope", row.Algorithm, row.Ratio)
		}
	}
	// Staleness gaps: BSP needs at least as many rounds where comparable.
	for i, pr := range extensionPairs {
		if pr.gap == "" || pr.gap == "k-core" {
			continue // peel rounds and h-index supersteps count different things
		}
		if gap := res.Steps[i]; gap[0] < gap[1] {
			t.Fatalf("%s: bsp %d < shared-memory %d", pr.gap, gap[0], gap[1])
		}
	}
}
