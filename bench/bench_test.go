package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickRun(t *testing.T) *result {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-seed", "7", "-workdir", dir, "-out", out, "-trace-out", filepath.Join(dir, "trace.jsonl")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\nstderr:\n%s\nstdout:\n%s", code, &stderr, &stdout)
	}
	var r result
	if err := readJSON(out, &r); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(filepath.Join(dir, "trace.jsonl"))
	if err != nil || len(spans) == 0 {
		t.Fatalf("trace-out: %d spans, err %v", len(spans), err)
	}
	return &r
}

// TestQuickRunMatchesBenchmarkJSON is the tier-1 smoke test: the harness
// runs end to end at -quick size, every workload and metric BENCHMARK.json
// names comes out with its unit, the declared names and counts respect the
// contract's limits, and exact metrics repeat across two runs.
func TestQuickRunMatchesBenchmarkJSON(t *testing.T) {
	var bj benchmarkJSON
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	// BENCHMARK.json and the metric tables in metrics.go say the same thing.
	sameDefs := func(kind string, js []jsonMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(js), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != better || j.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %s %s %s bound %v", kind, i, j, d.name, d.unit, better, d.bound)
			}
			if !nameRE.MatchString(j.Name) {
				t.Errorf("metric name %q breaks the naming rule", j.Name)
			}
		}
	}
	sameDefs("end_to_end", bj.EndToEnd, endToEndMetrics)
	sameDefs("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadNames))
	}

	a, b := quickRun(t), quickRun(t)
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) || w.Why == "" {
			t.Errorf("workload %d: %+v, the program runs %q", i, w, workloadNames[i])
		}
		wa, wb := a.workload(w.Name), b.workload(w.Name)
		if wa.SessionsAttempted == 0 || wa.SessionsFailed != 0 || wa.FailedFrac != 0 {
			t.Errorf("%s: %d sessions, %d failed: %v", w.Name, wa.SessionsAttempted, wa.SessionsFailed, wa.Failures)
		}
		for _, m := range bj.EndToEnd {
			if s, ok := wa.EndToEnd[m.Name]; !ok || s.Unit != m.Unit || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, m.Name, s, m.Unit)
			}
		}
		for _, d := range perLayerMetrics {
			sa, ok := wa.PerLayer[d.name]
			if !ok || sa.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", w.Name, d.name, sa, d.unit)
			}
			if sb := wb.PerLayer[d.name]; d.exact && sa.Median != sb.Median {
				t.Errorf("%s: exact metric %s differs between two runs: %v vs %v", w.Name, d.name, sa.Median, sb.Median)
			}
		}
		if !sameHashes(wa.Hashes, wb.Hashes) {
			t.Errorf("%s: output hashes differ between two runs: %v vs %v", w.Name, wa.Hashes, wb.Hashes)
		}
	}
	if !sameHashes(a.workload("rmat_traverse").Hashes, a.workload("mmap_compressed").Hashes) {
		t.Error("flat and compressed traversals disagree")
	}
	if a.Env.NProc == 0 || a.Env.GoVersion == "" || a.Env.Seed != 7 || a.Env.Workers == 0 {
		t.Errorf("environment block incomplete: %+v", a.Env)
	}

	// -compare must accept a result against itself; whether two runs at this
	// tiny size agree in time and memory is noise, and not asserted.
	path := filepath.Join(t.TempDir(), "a.json")
	raw, _ = json.Marshal(a)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", path, path}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a result with itself exited %d:\n%s%s", code, &stdout, &stderr)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "session_s", bound: 0.25, floor: 0.05}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 9} }
	noisy := func(m float64) stat { return stat{Median: m, Q1: m * 0.8, Q3: m * 1.1, N: 9} }
	for _, tc := range []struct {
		a, b stat
		want string
	}{
		{tight(1), tight(1.05), "ok"},
		{tight(1), tight(0.5), "ok"},
		{tight(1), tight(1.4), "regressed"},
		{noisy(1), tight(1.4), "unresolved"},
		{tight(0.1), tight(0.14), "ok"}, // +40%, but 40 ms is under the floor
	} {
		if got := verdict(d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	s := summarize([]float64{7, 1, 11, 2, 4})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 9 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}
