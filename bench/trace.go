package main

import (
	"runtime"
	"time"

	"graphxmt/internal/core"
	"graphxmt/internal/obs"
)

// span is one timed interval of a traced session: the benchmark's own
// stopwatch around a public call into a layer, or an engine phase relayed
// by engineSink. Spans of one session share Session; Parent is the ID of
// the span that caused this one (-1 for the session root).
//
// A run's engine phases are folded, one span per phase name: a relay runs
// 10^4-10^5 supersteps, and a span each would be gigabytes. A folded span
// starts where the phase first ran, lasts the phase's total time over the
// run, and carries in Count how many engine spans it holds.
type span struct {
	Workload string  `json:"workload"`
	Session  int     `json:"session"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"` // seconds since the tracer was created
	EndS     float64 `json:"end_s"`
	Count    int     `json:"count,omitempty"`
}

func (s *span) dur() float64 { return s.EndS - s.StartS }

// engineStats are the counters the engine reports through its obs.Sink
// during one traced session, summed over that session's engine runs.
type engineStats struct {
	supersteps, logical, physical, delivered, pullSteps int64
	scratchMax                                          int64
	// busy sums every worker's busy time; capacity sums span duration ×
	// workers over the same spans, so busy/capacity is the busy fraction.
	busy, capacity time.Duration
	// maxChunk and meanChunk sum, over spans that timed chunks, the longest
	// chunk and the mean chunk; their ratio is the load-imbalance factor.
	maxChunk, meanChunk time.Duration
	mallocs, allocBytes uint64
}

// tracer keeps a run's spans in memory; they are written out at exit. A
// nil *tracer is tracing off: begin returns a no-op and nothing is
// recorded, so untraced sessions pay one nil check per public call.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int // open spans, innermost last
	session  int
	stats    []engineStats // indexed by session
	sink     engineSink
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), session: -1}
	t.sink.t = t
	return t
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

func (t *tracer) open(layer, name string, at time.Time) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Workload: t.workload, Session: t.session, ID: id, Parent: parent,
		Layer: layer, Name: name, StartS: t.since(at),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) close(id int, at time.Time) {
	t.spans[id].EndS = t.since(at)
	t.stack = t.stack[:len(t.stack)-1]
}

// begin opens a span around a call into layer and returns the function
// that closes it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.open(layer, name, time.Now())
	return func() { t.close(id, time.Now()) }
}

// beginSession opens the root span of the next traced session.
func (t *tracer) beginSession() func() {
	t.session++
	t.stats = append(t.stats, engineStats{})
	return t.begin("bench", "session")
}

// engineOpts hands the engine the tracer's sink through core.Config.Obs;
// nil (tracing off) leaves the config untouched.
func (t *tracer) engineOpts() []core.Option {
	if t == nil {
		return nil
	}
	return []core.Option{func(c *core.Config) { c.Obs = &t.sink }}
}

// obsSink is engineOpts for callers that build a core.Config themselves.
func (t *tracer) obsSink() obs.Sink {
	if t == nil {
		return nil
	}
	return &t.sink
}

// engineSink is the benchmark-owned obs.Sink. It turns the events the
// engine (label "bsp") and the recorder-observed GraphCT kernels already
// emit into child spans of whichever benchmark span is open, and folds the
// per-superstep counters into the session's engineStats. The engine calls a
// sink from its driving goroutine only, so no locking is needed.
type engineSink struct {
	t        *tracer
	run      int
	runStart time.Time
	engine   bool // the open run is a core.Run, not a GraphCT kernel
	workers  int
	phases   map[string]int // the open run's folded phase spans, by name
	mem      runtime.MemStats
}

func (s *engineSink) RunStart(info obs.RunInfo) {
	s.runStart = time.Now()
	s.engine = info.Label == "bsp"
	s.workers = info.Workers
	s.phases = map[string]int{}
	if s.engine {
		s.run = s.t.open("core", "core.run_s", s.runStart)
		runtime.ReadMemStats(&s.mem)
	} else {
		s.run = s.t.open("graphct", "graphct.kernel:"+info.Label, s.runStart)
	}
}

func (s *engineSink) Span(sp obs.Span) {
	t := s.t
	layer, name := "graphct", "graphct.phase:"+sp.Name
	if s.engine {
		layer, name = "core", "core."+sp.Name+"_s"
	}
	if id, ok := s.phases[name]; ok {
		t.spans[id].EndS += sp.Dur.Seconds()
		t.spans[id].Count++
	} else {
		start := s.runStart.Add(sp.Start)
		s.phases[name] = len(t.spans)
		t.spans = append(t.spans, span{
			Workload: t.workload, Session: t.session, ID: len(t.spans), Parent: s.run,
			Layer: layer, Name: name, StartS: t.since(start), EndS: t.since(start.Add(sp.Dur)), Count: 1,
		})
	}
	if !s.engine {
		return
	}
	st := &t.stats[t.session]
	var busy time.Duration
	for _, b := range sp.WorkerBusy {
		busy += b
	}
	st.busy += busy
	st.capacity += sp.Dur * time.Duration(s.workers)
	if sp.Chunks > 0 {
		st.maxChunk += sp.MaxChunk
		st.meanChunk += busy / time.Duration(sp.Chunks)
	}
}

func (s *engineSink) Step(step obs.StepStats) {
	st := &s.t.stats[s.t.session]
	st.supersteps++
	st.logical += step.Sent
	st.physical += step.SentPhysical
	st.delivered += step.Delivered
	if step.Direction == "pull" {
		st.pullSteps++
	}
	st.scratchMax = max(st.scratchMax, step.ScratchBytes)
}

func (s *engineSink) Mem(obs.MemSample) {}

func (s *engineSink) RunEnd(wall time.Duration) {
	if s.engine {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		st := &s.t.stats[s.t.session]
		st.mallocs += m.Mallocs - s.mem.Mallocs
		st.allocBytes += m.TotalAlloc - s.mem.TotalAlloc
	}
	s.t.close(s.run, s.runStart.Add(wall))
}

// sessionSpans groups the tracer's spans by session.
func (t *tracer) sessionSpans() [][]*span {
	out := make([][]*span, t.session+1)
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Session] = append(out[s.Session], s)
	}
	return out
}

// selfTimes returns, per layer, the spans' durations minus the part their
// direct children cover.
func selfTimes(spans []*span) map[string]float64 {
	children := map[int]float64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Layer] += s.dur() - children[s.ID]
	}
	return self
}
