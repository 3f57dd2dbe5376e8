package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"graphxmt/internal/metrics"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
)

// feedMixed drives sink through the shapes every renderer must agree on:
// a batched BSP run long enough for the report to elide rows (a retried
// superstep, a stall, direction and lane columns, checkpoint spans after
// their Step, memory samples), a spans-only kernel run, a checkpoint
// fallback, and a second, shorter batched BSP run. Every span shares one
// busy buffer, as the engine's do.
func feedMixed(sink obs.Sink) {
	us := time.Microsecond
	busy := make([]time.Duration, 2)
	span := func(name string, step int, start, dur time.Duration, chunks int64) {
		busy[0], busy[1] = dur/2, dur/3
		sink.Span(obs.Span{Name: name, Step: step, Start: start, Dur: dur, WorkerBusy: busy, Chunks: chunks, MaxChunk: dur / 4, Regions: chunks / 2})
	}
	bsp := func(steps, lanes int) {
		sink.RunStart(obs.RunInfo{Label: "bsp", Workers: 2, Vertices: 1000, Edges: 4000, Lanes: lanes})
		span("init", -1, 0, 5*us, 2)
		for s := 0; s < steps; s++ {
			at := time.Duration(s+1) * 100 * us
			d := time.Duration(1+s%7) * us
			span("compute", s, at, 3*d, int64(1+s%3))
			if s == 7 {
				span("compute", s, at+3*d, 3*d, 1) // the retried attempt
			}
			span("terminate", s, at+6*d, d, 0)
			span("deliver", s, at+7*d, 2*d, 1)
			span("worklist", s, at+9*d, d, 0)
			st := obs.StepStats{Step: s, Active: int64(s + 1), Sent: int64(10*s + lanes), SentPhysical: int64(3 * s),
				Delivered: int64(9 * s), Received: int64(9 * s), ScratchBytes: int64(1<<12 + s), Delivery: "lookaside",
				Lanes: int64(1 + s%lanes), Stalled: s == 9,
				Direction: []string{"push", "pull"}[s%2], FrontierEdges: int64(s), UnvisitedEdges: int64(steps - s)}
			if s == 7 {
				st.Retries = 1
			}
			sink.Step(st)
			if s%10 == 0 {
				span("checkpoint", s, at+10*d, 20*us, 0)
				sink.Mem(obs.MemSample{Step: s, At: at, HeapAlloc: uint64(1<<20 + s<<12), HeapSys: 1 << 22, NumGC: uint32(s / 10)})
			}
		}
		// The Chrome sink places runs on its own clock: let this one's
		// wall pass before the next starts.
		wall := time.Duration(steps+1) * 100 * us
		time.Sleep(wall)
		sink.RunEnd(wall)
	}
	bsp(130, 3)
	sink.RunStart(obs.RunInfo{Label: "cc", Workers: 2})
	for i := 0; i < 5; i++ {
		span("cc/iter", i, time.Duration(i)*10*us, 10*us, 1)
	}
	time.Sleep(50 * us)
	sink.RunEnd(50 * us)
	for _, n := range obs.Find[obs.FallbackNoter](sink) {
		n.NoteFallback("ck/ckpt-000000004.gxckpt", errors.New("checksum mismatch"))
	}
	bsp(20, 5)
}

// TestRenderersAgree feeds one stream into one Tee of every renderer and
// checks them against each other: the JSONL step count is the supersteps
// counter is /runs' steps plus truncated ones; the JSONL sends are the
// logical-message counter are the report's batch lines; the flight dump's
// BSP records are the tail of /runs; the fallback reaches both noters; and
// the Chrome file validates.
func TestRenderersAgree(t *testing.T) {
	var jsonlBuf, chromeBuf bytes.Buffer
	srvMetrics := metrics.NewRegistry()
	report, metricsSink, srv := obs.NewReport(), obs.NewMetrics(nil), live.NewServer(srvMetrics, 0)
	jsonl, chrome := obs.NewJSONL(&jsonlBuf), obs.NewChrome(&chromeBuf)
	feedMixed(obs.Tee(report, jsonl, chrome, metricsSink, srv.Sink()))
	for _, c := range []interface{ Close() error }{jsonl, chrome} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var steps, sent, fallbacks int64
	for _, line := range bytes.Split(bytes.TrimSpace(jsonlBuf.Bytes()), []byte("\n")) {
		var ev struct {
			Ev   string `json:"ev"`
			Sent int64  `json:"sent"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "step":
			steps++
			sent += ev.Sent
		case "ckpt_fallback":
			fallbacks++
		}
	}
	var runs struct {
		Runs []struct {
			Label     string           `json:"label"`
			Truncated int64            `json:"truncated_steps"`
			Steps     []map[string]any `json:"steps"`
		} `json:"runs"`
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	var runSteps int64
	var bspSteps []map[string]any
	for _, r := range runs.Runs {
		runSteps += int64(len(r.Steps)) + r.Truncated
		if r.Label == "bsp" {
			bspSteps = append(bspSteps, r.Steps...)
		}
	}
	var reportOut bytes.Buffer
	if err := report.Render(&reportOut); err != nil {
		t.Fatal(err)
	}
	var batchSent int64
	for _, m := range regexp.MustCompile(`batch: \d+ lanes, (\d+) lane-packed sends`).FindAllSubmatch(reportOut.Bytes(), -1) {
		n, _ := strconv.ParseInt(string(m[1]), 10, 64)
		batchSent += n
	}

	counter := func(name string) int64 { return metricsSink.Registry().Counter(name, "").Value() }
	if got := counter("graphxmt_supersteps_total"); got != steps || runSteps != steps {
		t.Errorf("jsonl %d steps, graphxmt_supersteps_total %d, /runs %d", steps, got, runSteps)
	}
	if got := counter("graphxmt_messages_logical_total"); got != sent || batchSent != sent {
		t.Errorf("jsonl sent %d, graphxmt_messages_logical_total %d, report batch %d", sent, got, batchSent)
	}
	if got := counter("graphxmt_ckpt_fallback_total"); got != 1 || fallbacks != 1 {
		t.Errorf("fallbacks: counter %d, jsonl %d, want 1", got, fallbacks)
	}
	var prom bytes.Buffer
	if err := srvMetrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := metricsSink.Registry().WritePrometheus(&local); err != nil {
		t.Fatal(err)
	}
	if prom.String() != local.String() {
		t.Errorf("the live server's /metrics differs from the Metrics sink's:\n%s\n---\n%s", prom.String(), local.String())
	}
	if !bytes.Contains(reportOut.Bytes(), []byte("supersteps elided")) {
		t.Errorf("report did not elide the long run:\n%s", reportOut.String())
	}

	_, flight := flightDump(t, srv.Flight())
	var flightBSP []map[string]any
	for _, r := range flight {
		if r["label"] == "bsp" {
			delete(r, "label")
			delete(r, "spans")
			flightBSP = append(flightBSP, r)
		}
	}
	if len(flight) != 32 || len(flightBSP) != 27 {
		t.Fatalf("flight dump has %d records, %d of them bsp; want 32 and 27 (the cc run's 5 between)", len(flight), len(flightBSP))
	}
	if tail := bspSteps[len(bspSteps)-len(flightBSP):]; !reflect.DeepEqual(flightBSP, tail) {
		t.Errorf("flight records differ from the tail of /runs:\n  flight %v\n  /runs  %v", flightBSP, tail)
	}

	if err := validateChromeTrace(bytes.NewReader(chromeBuf.Bytes())); err != nil {
		t.Errorf("chrome trace invalid: %v", err)
	}
}
