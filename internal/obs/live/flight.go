package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphxmt/internal/obs"
)

// flightFileName is the file DumpFlight writes into its target directory —
// next to the emergency checkpoint on a vertex-program panic, or wherever
// the SIGQUIT handler points it. A second dump into the same directory
// overwrites the first: the newest crash context wins.
const flightFileName = "flight.jsonl"

// defaultFlightDepth is the default ring capacity in supersteps.
const defaultFlightDepth = 32

// FlightRecorder is an obs.Sink that keeps the last N supersteps' spans and
// counters in a fixed-size ring — cheap enough to leave attached to every
// checkpointed run — and dumps them as JSONL on demand. The BSP engine
// invokes DumpFlight (through obs.FindFlightDumper) when a vertex-program
// panic forces an emergency checkpoint; CLIs invoke it from their SIGQUIT
// handlers. Unlike other sinks it locks internally, because DumpFlight runs
// on the failing goroutine or a signal goroutine while the run's driving
// goroutine may still be feeding it.
type FlightRecorder struct {
	mu      sync.Mutex
	depth   int
	label   string
	workers int
	pending []obs.SpanEvent // spans of the superstep whose Step event hasn't arrived
	ring    []flightRec     // completed supersteps, oldest first
	dropped int64           // supersteps pushed out of the ring
}

// flightRec is one dumped superstep: the JSONL sink's step event, the run's
// label and the superstep's span events.
type flightRec struct {
	obs.StepEvent
	Label string          `json:"label,omitempty"`
	Spans []obs.SpanEvent `json:"spans"`
}

// NewFlightRecorder returns a recorder keeping the last depth supersteps
// (depth <= 0 selects defaultFlightDepth).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = defaultFlightDepth
	}
	return &FlightRecorder{depth: depth, pending: []obs.SpanEvent{}}
}

// RunStart implements obs.Sink. The ring persists across runs — after a
// crash early in run k, the tail of run k-1 is still context worth having.
func (f *FlightRecorder) RunStart(info obs.RunInfo) {
	f.mu.Lock()
	f.label, f.workers = info.Label, info.Workers
	f.pending = f.pending[:0]
	f.mu.Unlock()
}

// Span implements obs.Sink. A span whose Step event already passed (the
// checkpoint span arrives after its superstep's counters) is attached to
// the completed ring entry; anything else waits in pending.
func (f *FlightRecorder) Span(s obs.Span) {
	ev := obs.NewSpanEvent(s)
	f.mu.Lock()
	if n := len(f.ring); n > 0 && f.ring[n-1].Step == s.Step {
		f.ring[n-1].Spans = append(f.ring[n-1].Spans, ev)
	} else {
		f.pending = append(f.pending, ev)
	}
	f.mu.Unlock()
}

// Step implements obs.Sink: seals the in-flight superstep into the ring.
func (f *FlightRecorder) Step(st obs.StepStats) {
	f.mu.Lock()
	rec := flightRec{StepEvent: obs.NewStepEvent(st), Label: f.label, Spans: f.pending}
	f.pending = []obs.SpanEvent{} // never nil: a span-less superstep dumps "spans":[]
	if len(f.ring) == f.depth {
		copy(f.ring, f.ring[1:])
		f.ring[len(f.ring)-1] = rec
		f.dropped++
	} else {
		f.ring = append(f.ring, rec)
	}
	f.mu.Unlock()
}

// Mem implements obs.Sink (samples are not retained — the flight ring is
// about superstep structure, not heap history).
func (f *FlightRecorder) Mem(obs.MemSample) {}

// RunEnd implements obs.Sink.
func (f *FlightRecorder) RunEnd(time.Duration) {}

// Steps returns the superstep indices currently in the ring, oldest first.
func (f *FlightRecorder) Steps() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.ring))
	for i, r := range f.ring {
		out[i] = r.Step
	}
	return out
}

// DumpFlight implements obs.FlightDumper: writes the ring as JSONL to
// dir/flight.jsonl and returns the path. The first line is a header
// carrying the cause and ring shape; each following line is one superstep:
// the obs JSONL sink's step event plus the run label and the superstep's
// span events (docs/OBSERVABILITY.md documents the schema). Spans still
// pending (the failing superstep's, when its Step event never arrived) are
// dumped as a final partial record.
func (f *FlightRecorder) DumpFlight(dir, cause string) (string, error) {
	f.mu.Lock()
	recs := append([]flightRec(nil), f.ring...)
	if len(f.pending) > 0 {
		recs = append(recs, flightRec{
			StepEvent: obs.NewStepEvent(obs.StepStats{Step: f.pending[len(f.pending)-1].Step}),
			Label:     f.label,
			Spans:     append([]obs.SpanEvent(nil), f.pending...),
		})
	}
	label, workers, dropped := f.label, f.workers, f.dropped
	f.mu.Unlock()

	path := filepath.Join(dir, flightFileName)
	file, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("live: flight dump: %w", err)
	}
	bw := bufio.NewWriter(file)
	enc := json.NewEncoder(bw)
	werr := enc.Encode(flightHeaderJSON{
		Ev: "flight", Cause: cause, Label: label, Workers: workers,
		Steps: len(recs), Depth: f.depth, Dropped: dropped,
	})
	for _, r := range recs {
		if werr != nil {
			break
		}
		werr = enc.Encode(r)
	}
	if ferr := bw.Flush(); werr == nil {
		werr = ferr
	}
	if cerr := file.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("live: flight dump: %w", werr)
	}
	return path, nil
}

type flightHeaderJSON struct {
	Ev      string `json:"ev"`
	Cause   string `json:"cause"`
	Label   string `json:"label,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Steps   int    `json:"steps"`
	Depth   int    `json:"depth"`
	Dropped int64  `json:"dropped,omitempty"`
}
