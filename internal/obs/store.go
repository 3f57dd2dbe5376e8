package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"graphxmt/internal/metrics"
)

// Store is the one recorded copy of the event stream: per run, a bounded
// record of each superstep's counters and spans, plus the run's totals.
// Report renders a Store, live's /runs another, and DumpFlight writes a
// Store's latest records. It locks, because the flight dump and /runs read
// it while the run feeds it.
type Store struct {
	// Head is how many of a run's first supersteps stay for good (the
	// report's first rows, /runs' steps); Tail how many of its latest
	// cycle through a ring after those (the report's last rows, the flight
	// dump; 0 selects 32); MaxRuns how many runs are kept, oldest dropped
	// first (0 keeps all). Read when a run starts.
	Head, Tail, MaxRuns int

	mu sync.Mutex
	// report marks a Report's store, which keeps the spans of every record
	// its table shows. Any other keeps spans only in each run's latest Tail
	// records, which the flight dump reads; /runs reads only the counters.
	report bool
	runs   []*storeRun
	cur    *storeRun // nil outside a run
	filed  int64     // records ever filed, for the flight dump's dropped count
}

// depth is Tail, defaulted.
func (s *Store) depth() int { return cmp.Or(max(s.Tail, 0), 32) }

// record is one superstep: its counters once its Step event arrived
// (stats), and its spans, whose WorkerBusy it owns (the engine's init span
// joins superstep 0's).
type record struct {
	st    StepStats
	stats bool
	spans []Span
}

type storeRun struct {
	info    RunInfo
	started time.Time
	wall    time.Duration
	done    bool

	// Record i is head[i] below headN and ring[(i-headN)%(tail+1)] past
	// it. n counts the records filed; record n, when open (cur), is the
	// superstep in flight, filed on its Step event, another superstep's
	// first event or the run's end — the ring's spare slot holds it, so
	// the tail filed records stay whole. last is the record touched most
	// recently, maxStep the highest step seen.
	cur                           *record
	head, ring                    []record
	headN, tail, n, last, maxStep int

	lastStep, steps       int
	lastCkpt              time.Time
	retries, stalls, sent int64

	// The totals: per phase in first-seen order, per worker, and latency
	// histograms of the complete records.
	phases            []phaseStat
	busy              []time.Duration
	stepWall, deliver *metrics.Histogram
	// Which optional report columns the run's supersteps carried.
	hasDir, hasDelivery, hasRetry bool

	memFirst, memLast MemSample
	memPeak           uint64
	memSamples        int
}

// phaseStat is one phase name's run totals.
type phaseStat struct {
	name                   string
	total, busy, maxChunk  time.Duration
	chunks, spans, regions int64
}

// stepFold sums a superstep's spans for the report's latency line and the
// /metrics superstep histogram alike: wall without the checkpoint span
// (I/O, not superstep work), busy time, and the deliver phase alone.
type stepFold struct {
	wall, busy, deliver time.Duration
	delivered           bool
}

func (f *stepFold) add(s *Span) {
	if s.Step < 0 || s.Name == checkpointPhase {
		return
	}
	f.wall += s.Dur
	for _, b := range s.WorkerBusy {
		f.busy += b
	}
	if s.Name == "deliver" {
		f.deliver += s.Dur
		f.delivered = true
	}
}

// checkpointPhase is core's checkpoint span name.
const checkpointPhase = "checkpoint"

// appendSpan appends a copy of s that owns its busy times, reusing what
// the slot held before.
func appendSpan(spans []Span, s *Span) []Span {
	n := len(spans)
	if n < cap(spans) {
		spans = spans[:n+1]
	} else {
		spans = append(spans, Span{})
	}
	busy := spans[n].WorkerBusy[:0]
	for _, b := range s.WorkerBusy {
		busy = append(busy, b)
	}
	spans[n] = *s
	spans[n].WorkerBusy = busy
	return spans
}

// RunStart implements Sink.
func (s *Store) RunStart(info RunInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.MaxRuns > 0 && len(s.runs) >= s.MaxRuns {
		s.runs = slices.Delete(s.runs, 0, len(s.runs)-s.MaxRuns+1)
	}
	s.cur = &storeRun{
		info: info, started: time.Now(),
		headN: max(s.Head, 0), tail: s.depth(), maxStep: -1, lastStep: -1,
		stepWall: metrics.NewHistogram(metrics.DurationBounds),
		deliver:  metrics.NewHistogram(metrics.DurationBounds),
	}
	s.runs = append(s.runs, s.cur)
}

func (r *storeRun) at(i int) *record {
	if i < r.headN {
		return &r.head[i]
	}
	return &r.ring[(i-r.headN)%(r.tail+1)]
}

// kept yields the indices of the filed records still held, oldest first.
func (r *storeRun) kept(yield func(int) bool) {
	for i := 0; i < r.n; i++ {
		if i == r.headN {
			i = max(i, r.n-r.tail)
		}
		if !yield(i) {
			return
		}
	}
}

// record returns the record of a superstep, opening one if it has none,
// or nil when it has left the ring (a late event counts in the totals).
func (r *storeRun) record(s *Store, step int) *record {
	if cur := r.cur; cur != nil {
		if cur.st.Step < 0 && step >= 0 {
			cur.st.Step, r.maxStep = step, step
		}
		if cur.st.Step == step {
			return cur
		}
	}
	if step <= r.maxStep {
		if r.n > 0 && r.at(r.last).st.Step == step {
			return r.at(r.last)
		}
		for i := range r.kept {
			if r.at(i).st.Step == step {
				r.last = i
				return r.at(i)
			}
		}
		if r.n > r.headN+r.tail {
			return nil
		}
	}
	r.file(s)
	r.maxStep = max(r.maxStep, step)
	if r.n < r.headN {
		r.head = append(r.head, record{})
	} else if len(r.ring) <= r.tail {
		r.ring = append(r.ring, record{})
	}
	r.cur = r.at(r.n)
	r.cur.st, r.cur.stats, r.cur.spans = StepStats{Step: step}, false, r.cur.spans[:0]
	return r.cur
}

// file closes the open record. The one it pushes out of the latest Tail
// is retired if it leaves the ring, or loses its spans if it stays in the
// head of a store that is not a Report's.
func (r *storeRun) file(s *Store) {
	if r.cur == nil {
		return
	}
	if out := r.n - r.tail; out >= r.headN {
		r.retire(r.at(out))
	} else if out >= 0 && !s.report {
		r.head[out].spans = nil
	}
	r.last = r.n
	r.n++
	r.cur = nil
	s.filed++
}

// retire adds a complete record to the latency histograms.
func (r *storeRun) retire(rec *record) {
	var f stepFold
	for i := range rec.spans {
		f.add(&rec.spans[i])
	}
	if f.wall > 0 {
		r.stepWall.Observe(f.wall.Microseconds())
	}
	if f.delivered {
		r.deliver.Observe(f.deliver.Microseconds())
	}
}

// phase returns the index of the named phase, appending it on first sight
// (a scan beats hashing a handful of names).
func (r *storeRun) phase(name string) int {
	for i := range r.phases {
		if r.phases[i].name == name {
			return i
		}
	}
	r.phases = append(r.phases, phaseStat{name: name})
	return len(r.phases) - 1
}

// Span implements Sink.
func (s *Store) Span(sp Span) {
	s.mu.Lock()
	if r := s.cur; r != nil {
		r.span(s, &sp)
	}
	s.mu.Unlock()
}

func (r *storeRun) span(s *Store, sp *Span) {
	ph := &r.phases[r.phase(sp.Name)]
	ph.total += sp.Dur
	ph.spans++
	ph.regions += sp.Regions
	for len(r.busy) < len(sp.WorkerBusy) {
		r.busy = append(r.busy, 0)
	}
	var busy time.Duration
	for w, b := range sp.WorkerBusy {
		r.busy[w] += b
		busy += b
	}
	if sp.Chunks > 0 {
		ph.chunks += sp.Chunks
		ph.busy += busy
		ph.maxChunk = max(ph.maxChunk, sp.MaxChunk)
	}
	if sp.Name == checkpointPhase {
		r.lastCkpt = time.Now()
	}
	if rec := r.record(s, sp.Step); rec != nil {
		rec.spans = appendSpan(rec.spans, sp)
	}
}

// Step implements Sink.
func (s *Store) Step(st StepStats) {
	s.mu.Lock()
	if r := s.cur; r != nil {
		r.step(s, &st)
	}
	s.mu.Unlock()
}

func (r *storeRun) step(s *Store, st *StepStats) {
	r.steps++
	r.lastStep = st.Step
	r.sent += st.Sent
	r.retries += st.Retries
	if st.Stalled {
		r.stalls++
	}
	r.hasDir = r.hasDir || st.Direction != ""
	r.hasDelivery = r.hasDelivery || st.Delivery != ""
	r.hasRetry = r.hasRetry || st.Retries > 0 || st.Stalled
	if rec := r.record(s, st.Step); rec != nil {
		rec.st, rec.stats = *st, true
		if rec == r.cur {
			r.file(s)
		}
	}
}

// Mem implements Sink.
func (s *Store) Mem(m MemSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.cur
	if r == nil {
		return
	}
	if r.memSamples++; r.memSamples == 1 {
		r.memFirst = m
	}
	r.memLast, r.memPeak = m, max(r.memPeak, m.HeapAlloc)
}

// RunEnd implements Sink.
func (s *Store) RunEnd(wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.cur
	if r == nil {
		return
	}
	r.wall, r.done = wall, true
	if r.cur != nil && r.cur.st.Step >= 0 {
		r.file(s) // a superstep that never reported its counters
	}
	for i := range r.kept {
		r.retire(r.at(i))
	}
	s.cur = nil
}

// RunSummary is one run as live's /runs serves it (docs/OBSERVABILITY.md):
// Steps are its first Head supersteps, Truncated counts the rest.
type RunSummary struct {
	Label     string      `json:"label"`
	Workers   int         `json:"workers"`
	Vertices  int64       `json:"vertices,omitempty"`
	Edges     int64       `json:"edges,omitempty"`
	Superstep int         `json:"superstep"`
	Done      bool        `json:"done"`
	WallUs    float64     `json:"wall_us,omitempty"`
	AgeUs     float64     `json:"age_us"`
	CkptAgeUs float64     `json:"last_checkpoint_age_us,omitempty"`
	Truncated int         `json:"truncated_steps,omitempty"`
	Retries   int64       `json:"retries,omitempty"`
	Stalls    int64       `json:"stalls,omitempty"`
	Steps     []StepEvent `json:"steps"`
}

// Runs returns a summary of every run held, oldest first.
func (s *Store) Runs() []RunSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]RunSummary, len(s.runs))
	for i, r := range s.runs {
		var steps []StepEvent
		for j := range min(r.n, r.headN) {
			if rec := &r.head[j]; rec.stats {
				steps = append(steps, newStepEvent(rec.st))
			}
		}
		out[i] = RunSummary{
			Label: r.info.Label, Workers: r.info.Workers, Vertices: r.info.Vertices, Edges: r.info.Edges,
			Superstep: r.lastStep, Done: r.done, AgeUs: us(now.Sub(r.started)),
			Truncated: r.steps - len(steps), Retries: r.retries, Stalls: r.stalls, Steps: steps,
		}
		if r.done {
			out[i].WallUs = us(r.wall)
		}
		if !r.lastCkpt.IsZero() {
			out[i].CkptAgeUs = us(now.Sub(r.lastCkpt))
		}
	}
	return out
}

// flightFileName is the file DumpFlight writes; a second dump into the
// same directory overwrites the first.
const flightFileName = "flight.jsonl"

// flightRecord is one dumped superstep: its JSONL step event, the run's
// label and its span events.
type flightRecord struct {
	StepEvent
	Label string      `json:"label,omitempty"`
	Spans []spanEvent `json:"spans"`
}

// newFlightRecord encodes rec (only the index of a superstep in flight).
func newFlightRecord(rec *record, label string) flightRecord {
	out := flightRecord{StepEvent: newStepEvent(rec.st), Label: label, Spans: make([]spanEvent, len(rec.spans))}
	for i, sp := range rec.spans {
		out.Spans[i] = newSpanEvent(sp)
	}
	return out
}

// DumpFlight writes the latest Tail supersteps held, across runs, and the
// one in flight to dir/flight.jsonl — a header with the cause, then one
// flightRecord a line (docs/OBSERVABILITY.md) — and returns the path. The
// engine calls it next to an emergency checkpoint.
func (s *Store) DumpFlight(dir, cause string) (string, error) {
	s.mu.Lock()
	depth := s.depth()
	var recs []flightRecord
	header := flightHeader{Ev: "flight", Cause: cause, Depth: depth}
	var open *record
	if n := len(s.runs); n > 0 {
		cur := s.runs[n-1]
		header.Label, header.Workers = cur.info.Label, cur.info.Workers
		open = cur.cur
	}
	for i := len(s.runs) - 1; i >= 0 && len(recs) < depth; i-- {
		r := s.runs[i]
		kept := slices.Collect(r.kept)
		for j := len(kept) - 1; j >= 0 && len(recs) < depth; j-- {
			recs = append(recs, newFlightRecord(r.at(kept[j]), r.info.Label))
		}
	}
	header.Dropped = s.filed - int64(len(recs))
	slices.Reverse(recs)
	if open != nil {
		// The superstep in flight, which never reported its counters.
		recs = append(recs, newFlightRecord(open, header.Label))
	}
	header.Steps = len(recs)
	s.mu.Unlock()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(header)
	for _, r := range recs {
		enc.Encode(r)
	}
	path := filepath.Join(dir, flightFileName)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	return path, nil
}

type flightHeader struct {
	Ev      string `json:"ev"`
	Cause   string `json:"cause"`
	Label   string `json:"label,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Steps   int    `json:"steps"`
	Depth   int    `json:"depth"`
	Dropped int64  `json:"dropped,omitempty"`
}
