package core_test

// Flight-recorder acceptance: a fault-injected vertex-program panic at
// superstep S produces, next to the emergency checkpoint, a JSONL dump of
// the last N supersteps — including step S itself (its compute span is
// emitted before the trap check exactly so the ring contains the failing
// step) — whose every completed superstep is, field for field, the step
// event the JSONL sink wrote for it: a superstep retried on the way says so.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/obs"
)

// jsonLines decodes one JSON object a line.
func jsonLines(t *testing.T, b []byte) (objs []map[string]any) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

func TestFlightRecorderDumpOnPanic(t *testing.T) {
	g := rmat(10, 7)
	target := int64(101)
	for g.Degree(target) == 0 {
		target++
	}
	const failStep = 2
	// Superstep 1 panics once and is retried; superstep failStep panics
	// every time and exhausts the retry.
	plan := mustPlan(t, fmt.Sprintf("panicn@1:%d:1;panic@%d:%d", target, failStep, target))
	var stream bytes.Buffer
	jsonl := obs.NewJSONL(&stream)
	cfg := ccMin()
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Obs = obs.Tee(obs.NewReport(), &obs.Store{}, jsonl)
	_, _, err := runRec(g, 3, cfg, core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()}), core.WithRetries(1))
	var pe *core.ProgramError
	if !errors.As(err, &pe) || pe.CheckpointPath == "" || pe.FlightRecorderPath == "" {
		t.Fatalf("want a ProgramError with an emergency checkpoint and a flight-recorder dump, got %v", err)
	}
	if filepath.Dir(pe.FlightRecorderPath) != filepath.Dir(pe.CheckpointPath) {
		t.Fatalf("flight dump %q not alongside emergency checkpoint %q", pe.FlightRecorderPath, pe.CheckpointPath)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	stepEvents := map[int]map[string]any{}
	for _, ev := range jsonLines(t, stream.Bytes()) {
		if ev["ev"] == "step" {
			stepEvents[int(ev["step"].(float64))] = ev
		}
	}

	dump, err := os.ReadFile(pe.FlightRecorderPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := jsonLines(t, dump)
	if header := lines[0]; header["ev"] != "flight" || !strings.Contains(fmt.Sprint(header["cause"]), "panicked") || header["steps"] != float64(len(lines)-1) {
		t.Fatalf("flight header = %v; want ev flight with a panic cause and %d steps", header, len(lines)-1)
	}
	var steps []int
	var failSpans []string
	// records are the dumped supersteps with JSONL step events: the dump's
	// own label and spans set aside, what is left must be that event.
	records := map[int]map[string]any{}
	for i, rec := range lines[1:] {
		step := int(rec["step"].(float64))
		if rec["ev"] != "step" {
			t.Fatalf("flight line %d: ev = %v, want step", i+1, rec["ev"])
		}
		spans, _ := rec["spans"].([]any)
		for _, s := range spans {
			if step == failStep {
				failSpans = append(failSpans, fmt.Sprint(s.(map[string]any)["name"]))
			}
		}
		delete(rec, "label")
		delete(rec, "spans")
		if want, ok := stepEvents[step]; ok {
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("flight superstep %d differs from its JSONL step event:\n  flight %v\n  jsonl  %v", step, rec, want)
			}
			records[step] = rec
		} else if step != failStep {
			t.Fatalf("flight superstep %d has no JSONL step event", step)
		}
		steps = append(steps, step)
	}
	// The ring must contain every completed superstep and the failing one,
	// whose record carries its compute span — the phase that trapped.
	for s := 0; s <= failStep; s++ {
		if !slices.Contains(steps, s) {
			t.Fatalf("flight dump missing superstep %d (has %v)", s, steps)
		}
	}
	if !slices.Contains(failSpans, "compute") {
		t.Fatalf("failing superstep %d has spans %v, want compute", failStep, failSpans)
	}
	if len(records) != failStep || records[1]["retries"] != 1.0 || records[1]["delivery"] == nil {
		t.Fatalf("completed supersteps %v: want %d, superstep 1 retried once and naming its delivery", records, failStep)
	}
}
