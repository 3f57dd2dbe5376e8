package live_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/metrics"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
)

// TestServerEndToEnd attaches a started Server to a real BSP run and reads
// every endpoint over HTTP: /metrics must be well-formed Prometheus text
// whose logical counters reconcile exactly with the Result, /runs and
// /runs/current must describe the run step by step — each step object the
// JSONL sink's step event for it, field for field — and /debug/pprof must
// answer.
func TestServerEndToEnd(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := live.NewServer(nil, 0)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var stream bytes.Buffer
	jsonl := obs.NewJSONL(&stream)
	res, err := core.Run(core.Config{
		Graph:   g,
		Program: bspalg.BFSProgram{Source: 0},
		Obs:     obs.Tee(srv.Sink(), jsonl),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	var stepEvents []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Bytes()), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev["ev"] == "step" {
			stepEvents = append(stepEvents, ev)
		}
	}

	// /metrics: well-formed exposition, counters reconcile with Result.
	body := httpGet(t, base+"/metrics")
	if err := metrics.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics not well-formed: %v\n%s", err, body)
	}
	var wantSent int64
	for _, s := range res.MessagesPerStep {
		wantSent += s
	}
	wantLine := fmt.Sprintf("graphxmt_messages_logical_total %d", wantSent)
	if !strings.Contains(body, wantLine) {
		t.Fatalf("/metrics missing %q:\n%s", wantLine, body)
	}
	if !strings.Contains(body, fmt.Sprintf("graphxmt_supersteps_total %d", res.Supersteps)) {
		t.Fatalf("/metrics superstep total does not match Result.Supersteps = %d", res.Supersteps)
	}
	for _, fam := range []string{
		"graphxmt_superstep_wall_us_bucket",
		`graphxmt_phase_us_bucket{phase="compute",le=`,
		"graphxmt_runs_completed_total 1",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}

	// /runs/current: the completed run, step by step.
	var cur struct {
		Label     string  `json:"label"`
		Superstep int     `json:"superstep"`
		Done      bool    `json:"done"`
		WallUs    float64 `json:"wall_us"`
		Steps     []struct {
			Step int   `json:"step"`
			Sent int64 `json:"sent"`
		} `json:"steps"`
	}
	jsonGet(t, base+"/runs/current", &cur)
	if cur.Label != "bsp" || !cur.Done || cur.WallUs <= 0 {
		t.Fatalf("/runs/current = %+v; want done bsp run", cur)
	}
	if len(cur.Steps) != res.Supersteps {
		t.Fatalf("/runs/current has %d steps, Result has %d", len(cur.Steps), res.Supersteps)
	}
	for i, s := range cur.Steps {
		if s.Step != i || s.Sent != res.MessagesPerStep[i] {
			t.Fatalf("step %d: /runs/current sent=%d, Result sent=%d", i, s.Sent, res.MessagesPerStep[i])
		}
	}

	// /runs: wraps the same run, whose steps are the JSONL step events.
	var runs struct {
		Runs []struct {
			Steps []map[string]any `json:"steps"`
		} `json:"runs"`
	}
	jsonGet(t, base+"/runs", &runs)
	if len(runs.Runs) != 1 {
		t.Fatalf("/runs has %d runs, want 1", len(runs.Runs))
	}
	if got := runs.Runs[0].Steps; !reflect.DeepEqual(got, stepEvents) {
		t.Fatalf("/runs steps differ from the JSONL step events:\n  /runs %v\n  jsonl %v", got, stepEvents)
	}
	if stepEvents[0]["delivery"] == nil || stepEvents[0]["delivered"] == nil {
		t.Fatalf("step 0 event %v names no delivery", stepEvents[0])
	}

	// /debug/pprof: the index answers.
	if got := httpGet(t, base+"/debug/pprof/"); !strings.Contains(got, "profiles") {
		t.Fatalf("/debug/pprof/ unexpected body:\n%.200s", got)
	}

	// 404 semantics: unknown runs path under a fresh server.
	fresh := live.NewServer(nil, 0)
	if err := fresh.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	resp, err := http.Get("http://" + fresh.Addr() + "/runs/current")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/runs/current before any run: status %d, want 404", resp.StatusCode)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, b)
	}
	return string(b)
}

func jsonGet(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(httpGet(t, url)), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// poisonSink overwrites the span's WorkerBusy with garbage as soon as the
// wrapped sink's Span returns — what the engine does to it one phase later,
// now that every span of a run shares one buffer.
type poisonSink struct{ obs.Sink }

func (p poisonSink) Span(s obs.Span) {
	p.Sink.Span(s)
	for i := range s.WorkerBusy {
		s.WorkerBusy[i] = -12345 * time.Hour
	}
}

// feedReusedBusy drives sink through a run of 40 supersteps (more than the
// flight ring keeps, checkpoint spans arriving after their Step) the way
// the engine does: every span's WorkerBusy is the same two-element buffer,
// refilled before each Span call.
func feedReusedBusy(sink obs.Sink) {
	us := time.Microsecond
	busy := make([]time.Duration, 2)
	span := func(name string, step int, start, dur time.Duration) {
		busy[0], busy[1] = dur/2, dur/3+time.Duration(step)*us
		sink.Span(obs.Span{Name: name, Step: step, Start: start, Dur: dur, WorkerBusy: busy, Chunks: int64(1 + step%3), MaxChunk: dur / 4})
	}
	sink.RunStart(obs.RunInfo{Label: "bsp", Workers: 2, Vertices: 1000, Edges: 4000})
	span("init", -1, 0, 5*us)
	for s := 0; s < 40; s++ {
		at := time.Duration(s) * 100 * us
		d := time.Duration(1+s%7) * us
		span("compute", s, at, 3*d)
		span("terminate", s, at+3*d, d)
		span("deliver", s, at+4*d, 2*d)
		sink.Step(obs.StepStats{Step: s, Active: int64(s + 1), Sent: int64(10 * s), SentPhysical: int64(3 * s), Delivered: int64(9 * s), Received: int64(9 * s), ScratchBytes: 1 << 12})
		if s%10 == 0 {
			span("checkpoint", s, at+6*d, 50*us)
		}
	}
	sink.Mem(obs.MemSample{Step: 39, At: 4 * time.Millisecond, HeapAlloc: 1 << 20, HeapSys: 1 << 22, NumGC: 3})
	sink.RunEnd(4 * time.Millisecond)
}

// wallClock matches what sinks stamp from their own clock, not from the
// event stream: Chrome timestamps and /runs ages.
var wallClock = regexp.MustCompile(`"(ts|age_us|last_checkpoint_age_us)": ?[0-9.e+-]+`)

// TestSinksDoNotRetainWorkerBusy: obs.Span.WorkerBusy is only valid during
// the Span call. Every sink — alone, behind a Tee, and the live server's
// trio with its /runs view and flight dump — must render byte for byte the
// same from a stream whose busy slices are destroyed after each call as
// from an undisturbed one.
func TestSinksDoNotRetainWorkerBusy(t *testing.T) {
	render := func(wrap func(obs.Sink) obs.Sink) map[string]string {
		out := map[string]string{}
		var jsonl, chrome, teeJSONL bytes.Buffer
		report, teeReport := obs.NewReport(), obs.NewReport()
		metricsSink, teeMetrics := obs.NewMetrics(nil), obs.NewMetrics(nil)
		jl, ch, teeJL := obs.NewJSONL(&jsonl), obs.NewChrome(&chrome), obs.NewJSONL(&teeJSONL)
		flight := &obs.Store{}
		srvMetrics := metrics.NewRegistry()
		srv := live.NewServer(srvMetrics, 8)
		for _, sink := range []obs.Sink{report, metricsSink, jl, ch, flight, srv.Sink(),
			obs.Tee(teeReport, teeMetrics, teeJL)} {
			feedReusedBusy(wrap(sink))
		}
		for _, c := range []interface{ Close() error }{jl, ch, teeJL} {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for name, r := range map[string]*obs.Report{"report": report, "tee/report": teeReport} {
			var buf bytes.Buffer
			if err := r.Render(&buf); err != nil {
				t.Fatal(err)
			}
			out[name] = buf.String()
		}
		for name, m := range map[string]*metrics.Registry{"metrics": metricsSink.Registry(), "tee/metrics": teeMetrics.Registry(), "server/metrics": srvMetrics} {
			var buf bytes.Buffer
			if err := m.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			out[name] = buf.String()
		}
		out["jsonl"], out["tee/jsonl"] = jsonl.String(), teeJSONL.String()
		out["chrome"] = wallClock.ReplaceAllString(chrome.String(), `"$1":0`)
		for name, f := range map[string]*obs.Store{"flight": flight, "server/flight": srv.Flight()} {
			path, err := f.DumpFlight(t.TempDir(), "test")
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(b)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
		out["server/runs"] = wallClock.ReplaceAllString(rec.Body.String(), `"$1":0`)
		return out
	}
	clean := render(func(s obs.Sink) obs.Sink { return s })
	poisoned := render(func(s obs.Sink) obs.Sink { return poisonSink{s} })
	for name, want := range clean {
		if want == "" {
			t.Errorf("%s rendered nothing", name)
		}
		if got := poisoned[name]; got != want {
			t.Errorf("%s kept a span's WorkerBusy past the Span call:\n--- undisturbed\n%s\n--- poisoned\n%s", name, want, got)
		}
	}
	if !strings.Contains(clean["flight"], "worker_busy_us") || !strings.Contains(clean["jsonl"], "worker_busy_us") {
		t.Fatal("the stream carried no busy times to retain")
	}
}
