package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// validateChromeTrace checks that r holds a structurally valid trace-event
// file as emitted by Chrome: a traceEvents array whose complete events
// carry name/ts/dur/pid/tid, whose tids are all named by thread_name
// metadata, with an engine track of non-overlapping phase spans and one
// named track per worker, each carrying at least one span. It is the
// schema check TestChromeTraceFile runs against a bspgraph-produced trace.
func validateChromeTrace(r io.Reader) error {
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(file.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no events")
	}

	threadNames := map[int]string{}
	type span struct{ ts, dur float64 }
	var engine []span
	spansPerTid := map[int]int{}
	for i, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" && ev.Tid != nil {
				name, _ := ev.Args["name"].(string)
				threadNames[*ev.Tid] = name
			}
		case "X":
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
				return fmt.Errorf("obs: event %d: complete event missing name/ts/dur/pid/tid", i)
			}
			if *ev.Dur < 0 {
				return fmt.Errorf("obs: event %d: negative duration", i)
			}
			spansPerTid[*ev.Tid]++
			if *ev.Tid == 0 {
				if _, ok := ev.Args["step"]; !ok {
					return fmt.Errorf("obs: event %d: engine span %q has no step arg", i, ev.Name)
				}
				engine = append(engine, span{*ev.Ts, *ev.Dur})
			}
		case "C", "i", "I":
			if ev.Ts == nil {
				return fmt.Errorf("obs: event %d: %q event missing ts", i, ev.Ph)
			}
		case "":
			return fmt.Errorf("obs: event %d: missing ph", i)
		}
	}

	if threadNames[0] != "engine" {
		return fmt.Errorf("obs: no engine track (tid 0 thread_name)")
	}
	workers := 0
	for tid, name := range threadNames {
		if tid == 0 {
			continue
		}
		want := fmt.Sprintf("worker %d", tid-1)
		if name != want {
			return fmt.Errorf("obs: tid %d named %q, want %q", tid, name, want)
		}
		workers++
	}
	if workers == 0 {
		return fmt.Errorf("obs: no worker tracks")
	}
	for tid := 1; tid <= workers; tid++ {
		if _, ok := threadNames[tid]; !ok {
			return fmt.Errorf("obs: worker tids not contiguous: missing tid %d", tid)
		}
		if spansPerTid[tid] == 0 {
			return fmt.Errorf("obs: worker track tid %d has no spans", tid)
		}
	}
	for tid := range spansPerTid {
		if _, ok := threadNames[tid]; !ok {
			return fmt.Errorf("obs: spans on unnamed tid %d", tid)
		}
	}
	if len(engine) == 0 {
		return fmt.Errorf("obs: engine track has no phase spans")
	}
	// Engine phases execute sequentially, so their spans must not overlap.
	sort.Slice(engine, func(a, b int) bool { return engine[a].ts < engine[b].ts })
	const epsilon = 1.0 // µs of timer slop
	for i := 1; i < len(engine); i++ {
		if engine[i].ts+epsilon < engine[i-1].ts+engine[i-1].dur {
			return fmt.Errorf("obs: engine spans overlap at ts=%.1fµs", engine[i].ts)
		}
	}
	return nil
}
