package core_test

// Flight-recorder acceptance: a fault-injected vertex-program panic at
// superstep S produces, next to the emergency checkpoint, a JSONL dump of
// the last N supersteps — including step S itself (its compute span is
// emitted before the trap check exactly so the ring contains the failing
// step) — whose every completed superstep is, field for field, the step
// event the JSONL sink wrote for it: a superstep retried on the way says so.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
)

func TestFlightRecorderDumpOnPanic(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var target int64 = -1
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 && v > 100 {
			target = v
			break
		}
	}
	if target < 0 {
		t.Fatal("no suitable panic target")
	}
	const failStep = 2
	// Superstep 1 panics once and is retried; superstep failStep panics
	// every time and exhausts the retry.
	plan, err := faultinject.ParsePlan(fmt.Sprintf("panicn@1:%d:1;panic@%d:%d", target, failStep, target))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fr := live.NewFlightRecorder(0)
	var stream bytes.Buffer
	jsonl := obs.NewJSONL(&stream)
	cfg := core.Config{
		Program:    plan.WrapProgram(bspalg.CCProgram{}),
		Combiner:   core.Min,
		Checkpoint: &ckpt.Policy{Dir: dir},
		MaxRetries: 1,
		Obs:        obs.Tee(obs.NewReport(), fr, jsonl),
	}
	_, _, err = runRec(g, 3, cfg)
	var pe *core.ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProgramError, got %v", err)
	}
	if pe.CheckpointPath == "" {
		t.Fatal("no emergency checkpoint written")
	}
	if pe.FlightRecorderPath == "" {
		t.Fatal("ProgramError carries no flight-recorder path")
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	stepEvents := map[int]map[string]any{}
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Bytes()), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev["ev"] == "step" {
			stepEvents[int(ev["step"].(float64))] = ev
		}
	}
	if filepath.Dir(pe.FlightRecorderPath) != filepath.Dir(pe.CheckpointPath) {
		t.Fatalf("flight dump %q not alongside emergency checkpoint %q",
			pe.FlightRecorderPath, pe.CheckpointPath)
	}

	f, err := os.Open(pe.FlightRecorderPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var (
		header struct {
			Ev    string `json:"ev"`
			Cause string `json:"cause"`
			Steps int    `json:"steps"`
		}
		steps []int
		spans = map[int][]string{}
		// records are the dumped supersteps with JSONL step events: the dump's
		// own label and spans set aside, what is left must be that event.
		records = map[int]map[string]any{}
	)
	for lineno := 0; sc.Scan(); lineno++ {
		if lineno == 0 {
			if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
				t.Fatalf("flight header: %v", err)
			}
			continue
		}
		var rec struct {
			Ev    string `json:"ev"`
			Step  int    `json:"step"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("flight line %d: %v", lineno, err)
		}
		if rec.Ev != "step" {
			t.Fatalf("flight line %d: ev = %q, want step", lineno, rec.Ev)
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatal(err)
		}
		delete(obj, "label")
		delete(obj, "spans")
		if want, ok := stepEvents[rec.Step]; ok {
			if !reflect.DeepEqual(obj, want) {
				t.Fatalf("flight superstep %d differs from its JSONL step event:\n  flight %v\n  jsonl  %v", rec.Step, obj, want)
			}
			records[rec.Step] = obj
		} else if rec.Step != failStep {
			t.Fatalf("flight superstep %d has no JSONL step event", rec.Step)
		}
		steps = append(steps, rec.Step)
		for _, s := range rec.Spans {
			spans[rec.Step] = append(spans[rec.Step], s.Name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header.Ev != "flight" || !strings.Contains(header.Cause, "panicked") {
		t.Fatalf("flight header = %+v; want ev flight with panic cause", header)
	}
	if header.Steps != len(steps) {
		t.Fatalf("header claims %d steps, dump has %d", header.Steps, len(steps))
	}
	// The ring must contain every completed superstep and the failing one.
	want := map[int]bool{}
	for s := 0; s <= failStep; s++ {
		want[s] = false
	}
	for _, s := range steps {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Fatalf("flight dump missing superstep %d (has %v)", s, steps)
		}
	}
	// The failing superstep's record must carry its compute span — the
	// phase that trapped.
	var hasCompute bool
	for _, name := range spans[failStep] {
		if name == "compute" {
			hasCompute = true
		}
	}
	if !hasCompute {
		t.Fatalf("failing superstep %d has spans %v, want compute", failStep, spans[failStep])
	}
	if len(records) != failStep || records[1]["retries"] != 1.0 || records[1]["delivery"] == nil {
		t.Fatalf("completed supersteps %v: want %d, superstep 1 retried once and naming its delivery", records, failStep)
	}
}
