package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome exports the event stream in the Chrome trace-event format (JSON
// object form, "traceEvents" array of duration/counter/metadata events) —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The layout:
//
//   - tid 0 ("engine") carries one complete ("X") event per superstep
//     phase, plus counter tracks for active vertices / messages / heap.
//   - tid w+1 ("worker w") carries one complete event per phase whose
//     duration is that worker's busy time within the phase — one track
//     per host worker, so a starved worker is visible as a short bar
//     against the engine's full-phase bar above it.
//
// Timestamps are microseconds on a single process clock, so consecutive
// runs (e.g. graphct kernel workflows) land on one shared timeline.
type Chrome struct {
	bw      *bufio.Writer
	base    time.Time
	runBase time.Duration
	label   string

	headerDone bool
	first      bool
	threads    int // worker tracks emitted so far
	err        error
}

// NewChrome returns a sink writing to w. Call Close to finish the JSON.
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{bw: bufio.NewWriter(w), base: time.Now(), first: true}
}

// chromeEvent is one trace event. dur is always emitted — a zero-duration
// busy span means "this worker was idle for the whole phase", which must
// stay distinguishable from a malformed event with no duration at all.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (c *Chrome) emit(ev chromeEvent) {
	if c.err != nil {
		return
	}
	if !c.headerDone {
		if _, c.err = c.bw.WriteString(`{"traceEvents":[` + "\n"); c.err != nil {
			return
		}
		c.headerDone = true
	}
	if !c.first {
		if _, c.err = c.bw.WriteString(",\n"); c.err != nil {
			return
		}
	}
	c.first = false
	b, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	_, c.err = c.bw.Write(b)
}

func (c *Chrome) meta(tid int, key, name string) {
	c.emit(chromeEvent{Name: key, Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": name}})
	c.emit(chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"sort_index": tid}})
}

// RunStart implements Sink.
func (c *Chrome) RunStart(info RunInfo) {
	c.runBase = time.Since(c.base)
	c.label = info.Label
	if c.threads == 0 {
		c.emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"name": "graphxmt"}})
		c.meta(0, "thread_name", "engine")
	}
	for c.threads < info.Workers {
		c.meta(c.threads+1, "thread_name", fmt.Sprintf("worker %d", c.threads))
		c.threads++
	}
	c.emit(chromeEvent{Name: "run:" + info.Label, Ph: "i", Ts: us(c.runBase),
		Pid: 1, Tid: 0, Args: map[string]any{
			"workers": info.Workers, "vertices": info.Vertices, "edges": info.Edges,
		}})
}

// Span implements Sink.
func (c *Chrome) Span(s Span) {
	ts := us(c.runBase + s.Start)
	c.emit(chromeEvent{Name: s.Name, Ph: "X", Cat: "phase", Ts: ts,
		Dur: us(s.Dur), Pid: 1, Tid: 0,
		Args: map[string]any{"step": s.Step, "run": c.label}})
	for w, b := range s.WorkerBusy {
		c.emit(chromeEvent{Name: s.Name, Ph: "X", Cat: "busy", Ts: ts,
			Dur: us(b), Pid: 1, Tid: w + 1,
			Args: map[string]any{"step": s.Step}})
	}
}

// Step implements Sink.
func (c *Chrome) Step(st StepStats) {
	// Counters are stamped at emission time (end of the superstep).
	now := us(time.Since(c.base))
	c.emit(chromeEvent{Name: "superstep", Ph: "C", Ts: now, Pid: 1, Tid: 0,
		Args: map[string]any{"active": st.Active, "sent": st.Sent, "delivered": st.Delivered}})
	c.emit(chromeEvent{Name: "scratch_bytes", Ph: "C", Ts: now, Pid: 1, Tid: 0,
		Args: map[string]any{"bytes": st.ScratchBytes}})
}

// Mem implements Sink.
func (c *Chrome) Mem(m MemSample) {
	now := us(c.runBase + m.At)
	c.emit(chromeEvent{Name: "heap", Ph: "C", Ts: now, Pid: 1, Tid: 0,
		Args: map[string]any{"alloc": m.HeapAlloc, "sys": m.HeapSys}})
}

// RunEnd implements Sink.
func (c *Chrome) RunEnd(wall time.Duration) {
	c.emit(chromeEvent{Name: "run_end:" + c.label, Ph: "i",
		Ts: us(c.runBase + wall), Pid: 1, Tid: 0})
}

// Close terminates the traceEvents array and flushes.
func (c *Chrome) Close() error {
	if c.err == nil && !c.headerDone {
		// No events at all: still produce a valid, empty trace.
		_, c.err = c.bw.WriteString(`{"traceEvents":[`)
		c.headerDone = true
	}
	if c.err == nil {
		_, c.err = c.bw.WriteString("\n]," + `"displayTimeUnit":"ms"}` + "\n")
	}
	if err := c.bw.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}
