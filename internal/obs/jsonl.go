package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// JSONL streams events as line-delimited JSON, one object per event, with
// an "ev" discriminator — the machine-readable export for ad-hoc tooling
// (jq, pandas). Durations are microseconds (floats); byte counts are raw.
type JSONL struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing to w. Call Close to flush.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (j *JSONL) emit(v any) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(v)
}

// RunStart implements Sink.
func (j *JSONL) RunStart(info RunInfo) {
	j.emit(struct {
		Ev       string `json:"ev"`
		Label    string `json:"label"`
		Workers  int    `json:"workers"`
		Vertices int64  `json:"vertices,omitempty"`
		Edges    int64  `json:"edges,omitempty"`
		Lanes    int    `json:"lanes,omitempty"`
	}{"run_start", info.Label, info.Workers, info.Vertices, info.Edges, info.Lanes})
}

// spanEvent is a Span as JSONL and the flight dump write it.
type spanEvent struct {
	Ev         string    `json:"ev"`
	Name       string    `json:"name"`
	Step       int       `json:"step"`
	StartUs    float64   `json:"start_us"`
	DurUs      float64   `json:"dur_us"`
	BusyUs     []float64 `json:"worker_busy_us,omitempty"`
	Chunks     int64     `json:"chunks,omitempty"`
	MaxChunkUs float64   `json:"max_chunk_us,omitempty"`
	Regions    int64     `json:"regions,omitempty"`
}

// newSpanEvent encodes s into an event that owns its busy times.
func newSpanEvent(s Span) spanEvent {
	var busy []float64
	if len(s.WorkerBusy) > 0 {
		busy = make([]float64, len(s.WorkerBusy))
		for i, b := range s.WorkerBusy {
			busy[i] = us(b)
		}
	}
	return spanEvent{"span", s.Name, s.Step, us(s.Start), us(s.Dur), busy, s.Chunks, us(s.MaxChunk), s.Regions}
}

// StepEvent is a StepStats as the JSONL stream writes it, the "step" event.
// The flight dump and live's /runs carry the same objects.
type StepEvent struct {
	Ev        string `json:"ev"`
	Step      int    `json:"step"`
	Active    int64  `json:"active"`
	Sent      int64  `json:"sent"`
	Physical  int64  `json:"msgs_physical"`
	Delivered int64  `json:"delivered"`
	Received  int64  `json:"received"`
	Scratch   int64  `json:"scratch_bytes"`
	Direction string `json:"direction,omitempty"`
	Delivery  string `json:"delivery,omitempty"`
	Frontier  int64  `json:"frontier_edges,omitempty"`
	Retries   int64  `json:"retries,omitempty"`
	Stalled   bool   `json:"stalled,omitempty"`
	Lanes     int64  `json:"lanes,omitempty"`
}

// newStepEvent encodes st.
func newStepEvent(st StepStats) StepEvent {
	return StepEvent{"step", st.Step, st.Active, st.Sent, st.SentPhysical, st.Delivered, st.Received, st.ScratchBytes,
		st.Direction, st.Delivery, st.FrontierEdges, st.Retries, st.Stalled, st.Lanes}
}

// Span implements Sink.
func (j *JSONL) Span(s Span) { j.emit(newSpanEvent(s)) }

// Step implements Sink.
func (j *JSONL) Step(st StepStats) { j.emit(newStepEvent(st)) }

// NoteFallback implements FallbackNoter: each damaged checkpoint the
// resume fallback chain skips becomes a "ckpt_fallback" event.
func (j *JSONL) NoteFallback(path string, cause error) {
	j.emit(struct {
		Ev    string `json:"ev"`
		Path  string `json:"path"`
		Cause string `json:"cause"`
	}{"ckpt_fallback", path, cause.Error()})
}

// Mem implements Sink.
func (j *JSONL) Mem(m MemSample) {
	j.emit(struct {
		Ev        string  `json:"ev"`
		Step      int     `json:"step"`
		AtUs      float64 `json:"at_us"`
		HeapAlloc uint64  `json:"heap_alloc"`
		HeapSys   uint64  `json:"heap_sys"`
		NumGC     uint32  `json:"num_gc"`
		PauseUs   float64 `json:"gc_pause_us"`
	}{"mem", m.Step, us(m.At), m.HeapAlloc, m.HeapSys, m.NumGC, us(m.PauseTotal)})
}

// RunEnd implements Sink.
func (j *JSONL) RunEnd(wall time.Duration) {
	j.emit(struct {
		Ev     string  `json:"ev"`
		WallUs float64 `json:"wall_us"`
	}{"run_end", us(wall)})
}

// Close flushes buffered events and reports the first write error.
func (j *JSONL) Close() error {
	if err := j.bw.Flush(); j.err == nil {
		j.err = err
	}
	return j.err
}
