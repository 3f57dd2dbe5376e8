package obs_test

// Sink and observer tests: synthetic event streams through each sink, the
// recorder-observer adaptation, and end-to-end traces from real BSP runs
// validated against the Chrome trace-event schema.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// feedSynthetic drives sink through a small, fixed event stream: one run of
// two supersteps with two workers.
// enginePhases are the span names the engine emits for each superstep, in
// execution order ("worklist" only under sparse activation).
var enginePhases = []string{"compute", "terminate", "deliver", "worklist"}

func feedSynthetic(sink obs.Sink) {
	sink.RunStart(obs.RunInfo{Label: "bsp", Workers: 2, Vertices: 100, Edges: 400})
	busy := []time.Duration{3 * time.Millisecond, 2 * time.Millisecond}
	for step := 0; step < 2; step++ {
		at := time.Duration(step) * 10 * time.Millisecond
		sink.Span(obs.Span{Name: "compute", Step: step, Start: at, Dur: 4 * time.Millisecond, WorkerBusy: busy, Regions: 2})
		sink.Span(obs.Span{Name: "terminate", Step: step, Start: at + 4*time.Millisecond, Dur: time.Millisecond, WorkerBusy: busy})
		sink.Span(obs.Span{Name: "deliver", Step: step, Start: at + 5*time.Millisecond, Dur: 3 * time.Millisecond, WorkerBusy: busy, Regions: int64(step)})
		sink.Step(obs.StepStats{Step: step, Active: 50, Sent: 200, Delivered: 180, Received: 180, ScratchBytes: 1 << 16})
	}
	sink.Mem(obs.MemSample{Step: 1, At: 19 * time.Millisecond, HeapAlloc: 1 << 20, HeapSys: 1 << 22, NumGC: 3})
	sink.RunEnd(20 * time.Millisecond)
}

func TestReportRender(t *testing.T) {
	r := obs.NewReport()
	feedSynthetic(r)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`== run "bsp": 2 workers, 100 vertices, 400 edges`,
		"step", "active", "sent", "delivered", "scratch",
		"compute", "terminate", "deliver",
		"phases:",
		"regions/step:  compute 2.00  terminate 0.00  deliver 0.50\n",
		"worker busy/wall:",
		"mem: heap",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Both superstep rows with their counters.
	if !strings.Contains(out, "50") || !strings.Contains(out, "200") {
		t.Errorf("report missing step counters:\n%s", out)
	}
}

// TestReportPhaseColumnsMatchEngine runs a real sparse BFS and checks the
// rendered table carries a column for every phase name the engine claims to
// emit — the report and the engine cannot drift apart silently.
func TestReportPhaseColumnsMatchEngine(t *testing.T) {
	g := gen.Ring(1 << 10)
	r := obs.NewReport()
	_, err := core.Run(core.Config{
		Graph:            g,
		Program:          bspalg.BFSProgram{Source: 0},
		SparseActivation: true,
		Obs:              r,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range enginePhases {
		if !strings.Contains(out, name) {
			t.Errorf("report missing engine phase %q:\n%s", name, out)
		}
	}
}

func TestReportElidesLongRuns(t *testing.T) {
	r := obs.NewReport()
	r.MaxRows = 8
	r.RunStart(obs.RunInfo{Label: "bsp", Workers: 1})
	for step := 0; step < 100; step++ {
		r.Span(obs.Span{Name: "compute", Step: step, Dur: time.Millisecond})
		r.Step(obs.StepStats{Step: step, Active: 1})
	}
	r.RunEnd(time.Second)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "supersteps elided") {
		t.Fatalf("long run not elided:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines > 20 {
		t.Fatalf("elided report still has %d lines", lines)
	}
}

// feedLong drives sink through two runs: an engine-shaped run of steps
// supersteps (every phase, a checkpoint every tenth superstep, one retried
// superstep, direction and lane columns, chunk stats, memory samples) and a
// kernel-shaped one whose spans revisit iteration 0 under a second name.
func feedLong(sink obs.Sink, steps int) {
	us := time.Microsecond
	sink.RunStart(obs.RunInfo{Label: "bsp", Workers: 2, Vertices: 1000, Edges: 4000, Lanes: 3})
	sink.Span(obs.Span{Name: "init", Step: -1, Dur: 5 * us, WorkerBusy: []time.Duration{us, 2 * us}, Chunks: 2, MaxChunk: 2 * us})
	for s := 0; s < steps; s++ {
		at := time.Duration(s) * 100 * us
		d := time.Duration(1+s%7) * us
		busy := []time.Duration{d, d / 2}
		compute := obs.Span{Name: "compute", Step: s, Start: at, Dur: 3 * d, WorkerBusy: busy, Chunks: int64(1 + s%3), MaxChunk: d}
		sink.Span(compute)
		if s == 7 {
			sink.Span(compute) // the retried attempt
		}
		sink.Span(obs.Span{Name: "terminate", Step: s, Start: at + 3*d, Dur: d})
		if s < steps-1 {
			sink.Span(obs.Span{Name: "deliver", Step: s, Start: at + 4*d, Dur: time.Duration(s%11) * 40 * us, WorkerBusy: busy})
			if s%2 == 0 {
				sink.Span(obs.Span{Name: "worklist", Step: s, Start: at + 5*d, Dur: d})
			}
		}
		st := obs.StepStats{Step: s, Active: int64(s + 1), Sent: int64(10 * s), SentPhysical: int64(3 * s), Delivered: int64(9 * s), Received: int64(9 * s), ScratchBytes: int64(1<<12 + s), Lanes: int64(s % 4),
			Direction: []string{"push", "pull"}[s%2], FrontierEdges: int64(s)}
		if s == 7 {
			st.Retries = 1
		}
		st.Stalled = s == 9
		sink.Step(st)
		if s%10 == 0 {
			sink.Span(obs.Span{Name: "checkpoint", Step: s, Start: at + 6*d, Dur: 900 * us})
			sink.Mem(obs.MemSample{Step: s, At: at, HeapAlloc: uint64(1<<20 + (s%50)<<12), HeapSys: 1 << 22, NumGC: uint32(s / 10), PauseTotal: time.Duration(s) * us, VmHWM: 1 << 25})
		}
	}
	sink.RunEnd(time.Duration(steps) * 100 * us)

	sink.RunStart(obs.RunInfo{Label: "cc", Workers: 1})
	for i := 0; i < 5; i++ {
		sink.Span(obs.Span{Name: "cc/iter", Step: i, Dur: time.Duration(i+1) * 10 * us, WorkerBusy: []time.Duration{us}})
	}
	sink.Span(obs.Span{Name: "cc/compress", Step: 0, Dur: 7 * us})
	sink.RunEnd(time.Millisecond)
}

// TestReportLongRunGolden pins the rendered report, byte for byte, to what
// the Report that kept one map-backed row per superstep forever produced
// (hashes captured on that commit, and recaptured when the dir column
// became unconditional and when the unvis column was dropped, each time
// with only that column changed): keeping only the
// rows that render and running totals for the rest is invisible, at the
// default MaxRows and at a small one, below, at and above the table size.
func TestReportLongRunGolden(t *testing.T) {
	for _, tc := range []struct {
		rows, steps int
		want        uint64
	}{
		{0, 30, 0x4672ad108c914398},
		{0, 48, 0xaa5f7e29be2aeb33},
		{0, 49, 0x4ca86360248e8a77},
		{0, 500, 0xcb86e156732c8ec9},
		{8, 100, 0xa20510ab274d07e1},
		{2, 3, 0xe4e7860d2d9ba670},
		{3, 1, 0x833b503b5b532a3c},
	} {
		r := obs.NewReport()
		r.MaxRows = tc.rows
		feedLong(r, tc.steps)
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != tc.want {
			t.Errorf("MaxRows=%d, %d supersteps: render hashes to %#x, want %#x:\n%s", tc.rows, tc.steps, got, tc.want, buf.String())
		}
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	feedSynthetic(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var regions int64
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev struct {
			Ev      string `json:"ev"`
			Regions int64  `json:"regions"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if ev.Ev == "" {
			t.Fatalf("line %q: missing ev discriminator", sc.Text())
		}
		counts[ev.Ev]++
		regions += ev.Regions
		if ev.Regions == 0 && bytes.Contains(sc.Bytes(), []byte(`"regions"`)) {
			t.Errorf("line %q: zero regions not omitted", sc.Text())
		}
	}
	if regions != 5 {
		t.Errorf("span regions sum to %d, want 5", regions)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"run_start": 1, "span": 6, "step": 2, "mem": 1, "run_end": 1}
	for ev, n := range want {
		if counts[ev] != n {
			t.Errorf("%s events = %d, want %d (all: %v)", ev, counts[ev], n, counts)
		}
	}
}

func TestChromeSyntheticValid(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewChrome(&buf)
	feedSynthetic(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := validateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("synthetic trace invalid: %v\n%s", err, buf.String())
	}
}

func TestChromeEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewChrome(&buf)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Still valid JSON...
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("empty trace is not JSON: %v\n%s", err, buf.String())
	}
	// ...but fails schema validation, which demands events.
	if err := validateChromeTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("empty trace passed validation")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"not-json", "nope"},
		{"no-events", `{"traceEvents":[]}`},
		{"x-missing-dur", `{"traceEvents":[{"name":"compute","ph":"X","ts":1,"pid":1,"tid":0}]}`},
		{"no-engine-track", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},
			{"name":"compute","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"step":0}}]}`},
		{"bad-worker-name", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}},
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"helper"}},
			{"name":"compute","ph":"X","ts":1,"dur":1,"pid":1,"tid":0,"args":{"step":0}},
			{"name":"compute","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"step":0}}]}`},
		{"engine-span-no-step", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}},
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},
			{"name":"compute","ph":"X","ts":1,"dur":1,"pid":1,"tid":0},
			{"name":"compute","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"step":0}}]}`},
		{"overlapping-engine-spans", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}},
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},
			{"name":"a","ph":"X","ts":0,"dur":100,"pid":1,"tid":0,"args":{"step":0}},
			{"name":"b","ph":"X","ts":50,"dur":100,"pid":1,"tid":0,"args":{"step":0}},
			{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"step":0}}]}`},
		{"spans-on-unnamed-tid", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}},
			{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},
			{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"step":0}},
			{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"step":0}},
			{"name":"stray","ph":"X","ts":0,"dur":1,"pid":1,"tid":9,"args":{"step":0}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateChromeTrace(strings.NewReader(tc.in)); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// capture records every sink event for assertions.
type capture struct {
	runs  []obs.RunInfo
	spans []obs.Span
	steps []obs.StepStats
	mems  []obs.MemSample
	ends  int
}

func (c *capture) RunStart(i obs.RunInfo) { c.runs = append(c.runs, i) }
func (c *capture) Span(s obs.Span) {
	s.WorkerBusy = append([]time.Duration(nil), s.WorkerBusy...)
	c.spans = append(c.spans, s)
}
func (c *capture) Step(st obs.StepStats)  { c.steps = append(c.steps, st) }
func (c *capture) Mem(m obs.MemSample)    { c.mems = append(c.mems, m) }
func (c *capture) RunEnd(_ time.Duration) { c.ends++ }

func TestRecorderObserverSpans(t *testing.T) {
	sink := &capture{}
	o := obs.NewRecorderObserver(sink, 64, 128)
	rec := trace.NewRecorder()
	rec.SetObserver(o)

	rec.StartPhase("cc/iter", 0)
	rec.StartPhase("cc/iter", 1)
	rec.StartPhase("bsp/scan", 0) // engine-internal: must not become a span
	rec.StartPhase("cc/iter", 2)
	o.Finish()
	o.Finish() // idempotent

	if len(sink.runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(sink.runs))
	}
	if got := sink.runs[0]; got.Label != "cc" || got.Vertices != 64 || got.Edges != 128 {
		t.Fatalf("RunInfo = %+v", got)
	}
	if len(sink.spans) != 3 {
		t.Fatalf("spans = %d, want 3 (bsp/ skipped): %+v", len(sink.spans), sink.spans)
	}
	for i, s := range sink.spans {
		if s.Name != "cc/iter" || s.Step != i {
			t.Fatalf("span %d = %q/%d, want cc/iter/%d", i, s.Name, s.Step, i)
		}
	}
	if sink.ends != 1 {
		t.Fatalf("run_end = %d, want 1", sink.ends)
	}
}

// TestEngineObsEvents drives a real BSP run through a capture sink and pins
// the event stream's shape: phase names from enginePhases, one
// StepStats per superstep, worker-busy slices sized to the worker count.
func TestEngineObsEvents(t *testing.T) {
	g := gen.Ring(1 << 10)
	sink := &capture{}
	res, err := core.Run(core.Config{
		Graph:            g,
		Program:          bspalg.BFSProgram{Source: 0},
		SparseActivation: true,
		Obs:              sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.runs) != 1 || sink.ends != 1 {
		t.Fatalf("runs=%d ends=%d, want 1/1", len(sink.runs), sink.ends)
	}
	if sink.runs[0].Label != "bsp" || sink.runs[0].Vertices != g.NumVertices() {
		t.Fatalf("RunInfo = %+v", sink.runs[0])
	}
	if len(sink.steps) != res.Supersteps {
		t.Fatalf("step events = %d, want %d", len(sink.steps), res.Supersteps)
	}
	known := map[string]bool{"init": true}
	for _, n := range enginePhases {
		known[n] = true
	}
	seen := map[string]bool{}
	for _, s := range sink.spans {
		if !known[s.Name] {
			t.Fatalf("unexpected span name %q", s.Name)
		}
		seen[s.Name] = true
		if s.WorkerBusy != nil && len(s.WorkerBusy) != sink.runs[0].Workers {
			t.Fatalf("span %q busy slice len %d, want %d", s.Name, len(s.WorkerBusy), sink.runs[0].Workers)
		}
		if s.Dur < 0 || s.Start < 0 {
			t.Fatalf("span %q has negative time: %+v", s.Name, s)
		}
	}
	for _, n := range append([]string{"init"}, enginePhases...) {
		if !seen[n] {
			t.Errorf("engine never emitted phase %q (saw %v)", n, seen)
		}
	}
	if len(sink.mems) == 0 {
		t.Fatal("no memory samples")
	}
	for _, st := range sink.steps {
		if st.ScratchBytes <= 0 {
			t.Fatalf("step %d scratch bytes = %d", st.Step, st.ScratchBytes)
		}
	}
}

// TestEngineChromeTraceBFS is the end-to-end schema check: a real BFS run
// exported through the Chrome sink must satisfy validateChromeTrace — the
// same validation CI applies to a bspgraph-produced scale-16 trace.
func TestEngineChromeTraceBFS(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := obs.NewChrome(&buf)
	if _, err := core.Run(core.Config{
		Graph:   g,
		Program: bspalg.BFSProgram{Source: 0},
		Obs:     c,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := validateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("BFS chrome trace invalid: %v", err)
	}
}

// TestSinkViaRecorderObserver checks the CLI attachment path end to end:
// bspgraph hands the engine its session sink through Config.Obs while a
// recorder observer feeds the same store. The BSP run is observed exactly
// once, through Config.Obs — the observer skips the engine's bsp/ phases —
// and a recorder observer alone does not reach the engine.
func TestSinkViaRecorderObserver(t *testing.T) {
	g := gen.Ring(1 << 8)
	for _, viaConfig := range []bool{true, false} {
		store := &obs.Store{Head: 1 << 10}
		o := obs.NewRecorderObserver(store, g.NumVertices(), g.NumEdges())
		rec := trace.NewRecorder()
		rec.SetObserver(o)
		var opts []core.Option
		if viaConfig {
			opts = append(opts, func(cfg *core.Config) { cfg.Obs = store })
		}
		res, err := bspalg.BFS(g, 0, rec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		o.Finish()
		runs := store.Runs()
		if !viaConfig {
			if len(runs) != 0 {
				t.Fatalf("a recorder observer alone reached the engine: %d runs", len(runs))
			}
			continue
		}
		if len(runs) != 1 || runs[0].Label != "bsp" || !runs[0].Done {
			t.Fatalf("runs = %+v, want one finished bsp run", runs)
		}
		if len(runs[0].Steps) != res.Supersteps {
			t.Fatalf("store holds %d steps, Result has %d", len(runs[0].Steps), res.Supersteps)
		}
	}
}

// flightDump dumps store into a fresh directory and returns the header and
// the records, each decoded into a map.
func flightDump(t *testing.T, store *obs.Store) (map[string]any, []map[string]any) {
	t.Helper()
	path, err := store.DumpFlight(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("flight line %q: %v", line, err)
		}
		lines = append(lines, v)
	}
	return lines[0], lines[1:]
}

// TestFlightRingDepth drives more supersteps through a store than its
// tail and checks the flight dump keeps exactly the most recent ones.
func TestFlightRingDepth(t *testing.T) {
	store := &obs.Store{Tail: 8}
	store.RunStart(obs.RunInfo{Label: "synthetic", Workers: 2})
	for s := 0; s < 20; s++ {
		store.Span(obs.Span{Name: "compute", Step: s, Dur: time.Microsecond})
		store.Step(obs.StepStats{Step: s, Active: int64(s)})
	}
	header, recs := flightDump(t, store)
	if header["cause"] != "test" || header["steps"] != 8.0 || header["depth"] != 8.0 || header["dropped"] != 12.0 {
		t.Fatalf("flight header = %v, want 8 of depth 8 with 12 dropped", header)
	}
	for i, rec := range recs {
		if rec["step"] != float64(12+i) || rec["active"] != float64(12+i) {
			t.Fatalf("record %d = %v; want supersteps 12..19 oldest first", i, rec)
		}
	}
}

// TestStoreKeepsSpansOnlyForTheFlightDump: a live server's store keeps a
// long run's first supersteps for /runs, but their spans only while the
// flight dump can reach them, so a superstep costs it its counters rather
// than its spans (four of them, each with 64 workers' busy times here).
func TestStoreKeepsSpansOnlyForTheFlightDump(t *testing.T) {
	const steps, workers, tail = 2000, 64, 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store := &obs.Store{Head: steps, Tail: tail}
	store.RunStart(obs.RunInfo{Label: "bsp", Workers: workers})
	busy := make([]time.Duration, workers)
	for s := 0; s < steps; s++ {
		for _, name := range enginePhases {
			store.Span(obs.Span{Name: name, Step: s, Dur: time.Microsecond, WorkerBusy: busy})
		}
		store.Step(obs.StepStats{Step: s, Active: 1})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The spans would hold 4 × (Span + 64 × 8 B) ≈ 2.4 KiB a superstep.
	if perStep := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / steps; perStep > 1024 {
		t.Errorf("store retains %d B a superstep; want its counters, not its spans", perStep)
	}
	if runs := store.Runs(); len(runs[0].Steps) != steps {
		t.Errorf("/runs holds %d steps, want %d", len(runs[0].Steps), steps)
	}
	_, recs := flightDump(t, store)
	if len(recs) != tail {
		t.Fatalf("flight dump has %d records, want %d", len(recs), tail)
	}
	for i, rec := range recs {
		if rec["step"] != float64(steps-tail+i) || len(rec["spans"].([]any)) != len(enginePhases) {
			t.Errorf("record %d: step %v with %d spans, want step %d with %d", i, rec["step"], len(rec["spans"].([]any)), steps-tail+i, len(enginePhases))
		}
	}
}

// TestFlightKeepsSpansWithTheirRun: a BSP run that ends at step 0, a
// spans-only kernel run at step 0, then another BSP run. Every dumped
// record carries its own run's label and only that run's spans — a run
// ending at the step the next one starts at no longer takes its spans.
func TestFlightKeepsSpansWithTheirRun(t *testing.T) {
	store := &obs.Store{}
	bsp := func(name string) {
		store.RunStart(obs.RunInfo{Label: "bsp", Workers: 1})
		store.Span(obs.Span{Name: "init", Step: -1, Dur: time.Microsecond})
		store.Span(obs.Span{Name: name, Step: 0, Dur: time.Microsecond})
		store.Step(obs.StepStats{Step: 0})
		store.RunEnd(time.Millisecond)
	}
	bsp("compute")
	store.RunStart(obs.RunInfo{Label: "cc", Workers: 1})
	store.Span(obs.Span{Name: "cc/iter", Step: 0, Dur: time.Microsecond})
	store.RunEnd(time.Millisecond)
	bsp("compute2")

	_, recs := flightDump(t, store)
	want := []struct {
		label string
		spans []string
	}{{"bsp", []string{"init", "compute"}}, {"cc", []string{"cc/iter"}}, {"bsp", []string{"init", "compute2"}}}
	if len(recs) != len(want) {
		t.Fatalf("dump has %d records, want %d: %v", len(recs), len(want), recs)
	}
	for i, rec := range recs {
		var names []string
		for _, sp := range rec["spans"].([]any) {
			names = append(names, sp.(map[string]any)["name"].(string))
		}
		if rec["label"] != want[i].label || strings.Join(names, ",") != strings.Join(want[i].spans, ",") {
			t.Errorf("record %d: label %v spans %v, want %s %v", i, rec["label"], names, want[i].label, want[i].spans)
		}
	}
}
