package obs

import (
	"strings"
	"time"

	"graphxmt/internal/par"
)

// RecorderObserver adapts a Sink into a phase observer: attached to a
// trace.Recorder (Recorder.SetObserver), it converts the recorder's phase
// stream into wall-clock spans — a phase's span runs from its StartPhase
// call to the next one, or to Finish. This instruments the shared-memory
// GraphCT kernels' top-level phases ("cc/iter", "bfs/level", ...) without
// touching a single kernel signature, and cross-links each span to the
// trace phase it profiles by name and index.
//
// Phases named "bsp/..." are skipped: the BSP engine emits its own,
// finer-grained spans (compute/terminate/deliver/worklist per superstep)
// to the sink in core.Config.Obs.
//
// The observer is lazy: RunStart is emitted on the first non-bsp phase
// (labelled by the phase name's prefix up to the first '/'), and a
// par.WorkerTimer is installed then so kernel spans carry per-worker busy
// time. Finish flushes the open span, emits RunEnd, and restores the
// previous timer; a CLI session (see cli.go) finishes its observers
// automatically on Close.
type RecorderObserver struct {
	sink      Sink
	vertices  int64
	edges     int64
	started   bool
	finished  bool
	runStart  time.Time
	timer     *par.WorkerTimer
	prevTimer *par.WorkerTimer
	busy      []time.Duration // backs every span's WorkerBusy

	open     bool
	curName  string
	curIndex int
	curT0    time.Time
}

// NewRecorderObserver returns an observer feeding sink. vertices/edges
// describe the input graph when known (zero otherwise); they only annotate
// RunInfo.
func NewRecorderObserver(sink Sink, vertices, edges int64) *RecorderObserver {
	return &RecorderObserver{sink: sink, vertices: vertices, edges: edges}
}

// PhaseStarted is the trace.Recorder phase-observer callback.
func (o *RecorderObserver) PhaseStarted(name string, index int) {
	if o.finished || strings.HasPrefix(name, "bsp/") {
		return
	}
	now := time.Now()
	if !o.started {
		o.started = true
		o.runStart = now
		workers := par.Workers()
		o.timer = par.NewWorkerTimer(workers)
		o.busy = make([]time.Duration, workers)
		o.prevTimer = par.SetTimer(o.timer)
		label := name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			label = name[:i]
		}
		o.sink.RunStart(RunInfo{
			Label:    label,
			Workers:  workers,
			Vertices: o.vertices,
			Edges:    o.edges,
		})
	}
	o.flushSpan(now)
	o.curName, o.curIndex, o.curT0, o.open = name, index, now, true
}

func (o *RecorderObserver) flushSpan(now time.Time) {
	if !o.open {
		return
	}
	s := o.timer.Drain(o.busy)
	o.sink.Span(Span{
		Name:       o.curName,
		Step:       o.curIndex,
		Start:      o.curT0.Sub(o.runStart),
		Dur:        now.Sub(o.curT0),
		WorkerBusy: s.Busy,
		Chunks:     s.Chunks,
		MaxChunk:   s.MaxChunk,
		Regions:    s.Regions,
	})
	o.open = false
}

// Finish closes the open span (if any), emits RunEnd, and restores the
// previously installed worker timer. Idempotent; a never-started observer
// finishes silently.
func (o *RecorderObserver) Finish() {
	if o.finished {
		return
	}
	o.finished = true
	if !o.started {
		return
	}
	now := time.Now()
	o.flushSpan(now)
	par.SetTimer(o.prevTimer)
	o.sink.RunEnd(now.Sub(o.runStart))
}
