package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/core"
)

func TestAblationActivation(t *testing.T) {
	g, s := testGraph(t)
	res, err := AblationActivation(g, s)
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
	res, err := AblationHotspot(g, s)
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
	res, err := AblationCombiner(g, s)
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
	res, err := SensitivityMachine(g, s)
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

func TestRenderAblations(t *testing.T) {
	g, s := testGraph(t)
	var buf bytes.Buffer

	act, err := AblationActivation(g, s)
	if err != nil {
		t.Fatal(err)
	}
	RenderActivation(&buf, act)
	if !strings.Contains(buf.String(), "sparse activation") {
		t.Fatal("activation render missing")
	}

	buf.Reset()
	hot, err := AblationHotspot(g, s)
	if err != nil {
		t.Fatal(err)
	}
	RenderHotspot(&buf, hot, s.Procs)
	if !strings.Contains(buf.String(), "chunk") {
		t.Fatal("hotspot render missing")
	}

	buf.Reset()
	comb, err := AblationCombiner(g, s)
	if err != nil {
		t.Fatal(err)
	}
	RenderCombiner(&buf, comb, s.Procs)
	if !strings.Contains(buf.String(), "combiner") {
		t.Fatal("combiner render missing")
	}

	buf.Reset()
	sens, err := SensitivityMachine(g, s)
	if err != nil {
		t.Fatal(err)
	}
	RenderSensitivity(&buf, sens, s.Procs)
	if !strings.Contains(buf.String(), "latency") {
		t.Fatal("sensitivity render missing")
	}
}

func TestRegimes(t *testing.T) {
	g, s := testGraph(t)
	res, err := Regimes(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BSPCC) == 0 || len(res.CTCC) == 0 || len(res.BSPBFS) == 0 || len(res.CTBFS) == 0 {
		t.Fatal("missing diagnoses")
	}
	// The first BSP CC superstep is work-dominated, not overhead.
	if res.BSPCC[0].Regime == "overhead" {
		t.Fatalf("first superstep diagnosed as overhead: %+v", res.BSPCC[0])
	}
	// The last BFS levels sit in a non-scaling regime (latency or
	// overhead), which is the paper's flat-tail observation.
	tail := res.CTBFS[len(res.CTBFS)-1]
	if tail.Regime == "issue-bound" {
		t.Fatalf("tail BFS level diagnosed issue-bound: %+v", tail)
	}
	for _, p := range append(res.BSPCC, res.CTBFS...) {
		if p.Share < 0 || p.Share > 1.01 {
			t.Fatalf("share out of range: %+v", p)
		}
		if p.Seconds <= 0 {
			t.Fatalf("non-positive seconds: %+v", p)
		}
	}
	var buf bytes.Buffer
	RenderRegimes(&buf, res)
	if !strings.Contains(buf.String(), "REGIME DIAGNOSIS") {
		t.Fatal("render missing header")
	}
}

func TestExtensions(t *testing.T) {
	g, s := testGraph(t)
	res, err := Extensions(g, s)
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
	for name, gap := range res.IterationGaps {
		if name == "k-core" {
			continue // peel rounds and h-index supersteps count different things
		}
		if gap[0] < gap[1] {
			t.Fatalf("%s: bsp %d < shared-memory %d", name, gap[0], gap[1])
		}
	}
	var buf bytes.Buffer
	RenderExtensions(&buf, res, s.Procs)
	if !strings.Contains(buf.String(), "EXTENSIONS") {
		t.Fatal("render missing")
	}
}

func TestCSVWriters(t *testing.T) {
	g, s := testGraph(t)

	f1, err := Fig1(g, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.WriteFig1CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "iteration,bsp_8p") {
		t.Fatalf("fig1 header = %q", lines[0])
	}
	// One data row per iteration of the longer series.
	wantRows := len(f1.BSP[0])
	if len(f1.GraphCT[0]) > wantRows {
		wantRows = len(f1.GraphCT[0])
	}
	if len(lines)-1 != wantRows {
		t.Fatalf("fig1 rows = %d, want %d", len(lines)-1, wantRows)
	}

	f2, err := Fig2(g, s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f2.WriteFig2CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "level,frontier,messages") {
		t.Fatalf("fig2 header: %q", buf.String()[:40])
	}

	f3, err := Fig3(g, s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f3.WriteFig3CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graphct,0,") {
		t.Fatal("fig3 missing graphct rows")
	}

	f4, err := Fig4(g, s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f4.WriteFig4CSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows)-1 != len(f4.Procs) {
		t.Fatalf("fig4 rows = %d, want %d", len(rows)-1, len(f4.Procs))
	}
}

// TestSupervisionReachesEveryPass: the supervisor knobs reach every engine
// pass an experiment makes, so a run deadline no pass can meet stops each
// experiment in its first pass with a typed error naming that pass.
func TestSupervisionReachesEveryPass(t *testing.T) {
	g, s := testGraph(t)
	s.RunTimeout = time.Nanosecond
	cases := []struct {
		name  string
		run   func() error
		first string
	}{
		{"Extensions", func() error { _, err := Extensions(g, s); return err }, "bsp kcore"},
		{"Regimes", func() error { _, err := Regimes(g, s); return err }, "bsp cc"},
		{"SensitivityMachine", func() error { _, err := SensitivityMachine(g, s); return err }, "bsp cc"},
		{"AblationActivation", func() error { _, err := AblationActivation(g, s); return err }, "full-scan bfs"},
		{"AblationHotspot", func() error { _, err := AblationHotspot(g, s); return err }, "bfs chunk=1"},
		{"AblationCombiner", func() error { _, err := AblationCombiner(g, s); return err }, "plain cc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			var te *core.TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("error %v, want a *core.TimeoutError", err)
			}
			if !strings.Contains(err.Error(), "experiments: "+tc.first+": ") {
				t.Errorf("error %q does not name the first pass, %s", err, tc.first)
			}
		})
	}
}
