package core_test

// The supervised boundary's sharing. ckptRun.record copies what the next
// sweep can overwrite and references, clipped to length, the run's
// append-only histories (per-step counters, retry counts, direction
// decisions, trace phases). A snapshot that shares a history prefix with
// the live run must still hold exactly that prefix however far the run
// appends past it, and a boundary's write runs beside the next sweep. What
// a boundary allocates is checkpoint_test.go's.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// TestBoundaryHistorySharedAcrossKillAndRetry kills a retried, direction-
// optimized BFS at every boundary, resumes it, and checks two things. The
// resumed Result — RetriesPerStep and DirectionPerStep included — and
// profile are bit-identical to an uninterrupted run's. And every checkpoint
// either run left behind, each of which referenced a prefix of arrays the
// engine went on appending to, holds exactly the final histories' prefix.
func TestBoundaryHistorySharedAcrossKillAndRetry(t *testing.T) {
	// Scale 12: the BFS apex sends enough to be kept as records and pulled.
	g := rmat(12, 7)
	const faultStep = 2
	// A fresh one-shot fault per run: the run that executes faultStep — the
	// killed one or the resumed one — retries it once.
	mk := func() core.Config {
		cfg := core.Config{Program: newTransientStep(bspalg.BFSProgram{Source: 0}, faultStep, 1)}
		core.WithRetries(2)(&cfg)
		return cfg
	}
	res, basePh, err := runRec(g, 1, mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DirectionPerStep) != res.Supersteps || !slices.Contains(res.DirectionPerStep, core.DirPull) {
		t.Fatalf("DirectionPerStep = %v: want one decision per superstep with a pull among them", res.DirectionPerStep)
	}
	for _, w := range []int{1, 3} {
		for k := 0; k <= res.Supersteps-2; k++ {
			t.Run(fmt.Sprintf("w=%d/kill@%d", w, k), func(t *testing.T) {
				dir := t.TempDir()
				kill := &ckpt.Policy{Dir: dir, Hooks: (&faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}).Hooks()}
				_, _, err := runRec(g, w, mk(), core.WithCheckpoint(kill))
				var ie *core.InterruptedError
				if !errors.As(err, &ie) || ie.CheckpointPath == "" {
					t.Fatalf("want InterruptedError with a checkpoint, got %v", err)
				}
				got, ph, err := runRec(g, w, mk(), core.WithCheckpoint(&ckpt.Policy{Dir: dir}), core.WithResume(ie.CheckpointPath))
				if err != nil || !reflect.DeepEqual(res, got) {
					t.Fatalf("resume: %v; Result differs from an uninterrupted run's: %v", err, !reflect.DeepEqual(res, got))
				}
				comparePhases(t, basePh, ph)

				paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gxckpt"))
				if err != nil || len(paths) != res.Supersteps-1 {
					t.Fatalf("checkpoints = %v, %v; want one per boundary (%d)", paths, err, res.Supersteps-1)
				}
				for _, p := range paths {
					s, err := ckpt.Load(p)
					if err != nil {
						t.Fatal(err)
					}
					done := int(s.Step) + 1
					dirs := make([]int64, done)
					for i, d := range res.DirectionPerStep[:done] {
						dirs[i] = int64(d)
					}
					if !slices.Equal(s.RetriesPerStep, res.RetriesPerStep[:done]) || !slices.Equal(s.Directions, dirs) ||
						!slices.Equal(s.ActivePerStep, res.ActivePerStep[:done]) || !slices.Equal(s.MessagesPerStep, res.MessagesPerStep[:done]) ||
						!slices.Equal(s.DeliveredPerStep, res.DeliveredPerStep[:done]) {
						t.Fatalf("%s: histories are not the final run's first %d entries: %+v", filepath.Base(p), done, s)
					}
					// Two phases a superstep (scan, superstep), all final at
					// the boundary that snapshotted them.
					rec := trace.NewRecorder()
					rec.RestoreState(s.Phases)
					comparePhases(t, basePh[:2*done], rec.Phases())
				}
			})
		}
	}
}

// stepSignal closes ch the first time superstep step computes; everything
// else, fingerprint identity included, is the inner program's.
type stepSignal struct {
	inner core.Program
	step  int
	once  sync.Once
	ch    chan struct{}
}

func (p *stepSignal) InitialState(g *graph.Graph, v int64) int64 { return p.inner.InitialState(g, v) }
func (p *stepSignal) ProgramName() string                        { return core.ProgramNameOf(p.inner) }

func (p *stepSignal) Compute(v *core.VertexContext) {
	if v.Superstep() == p.step {
		p.once.Do(func() { close(p.ch) })
	}
	p.inner.Compute(v)
}

// TestWriteOverlapsNextSweep: a periodic checkpoint write runs beside the
// next superstep's sweep. The write of boundary k is held open until
// superstep k+1 computes, or a second passes; the sweep must get there
// without waiting for the write, and the run must still end identical to
// an unchecked one, with the held checkpoint loadable.
func TestWriteOverlapsNextSweep(t *testing.T) {
	const k = 5
	g := gen.Path(64)
	base, basePh, err := runRec(g, 2, core.Config{Program: bspalg.BFSProgram{Source: 0}})
	if err != nil {
		t.Fatal(err)
	}
	prog := &stepSignal{inner: bspalg.BFSProgram{Source: 0}, step: k + 1, ch: make(chan struct{})}
	overlapped := false
	dir := t.TempDir()
	hooks := &ckpt.Hooks{WrapWrite: func(step int64, w io.Writer) io.Writer {
		if step == k {
			select {
			case <-prog.ch:
				overlapped = true
			case <-time.After(time.Second):
			}
		}
		return w
	}}
	res, ph, err := runRec(g, 2, core.Config{Program: prog}, core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: hooks}))
	if err != nil {
		t.Fatal(err)
	}
	if !overlapped {
		t.Fatalf("superstep %d did not compute while boundary %d's write was held", k+1, k)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("checkpointed Result differs from the unchecked run")
	}
	comparePhases(t, basePh, ph)
	if s, err := ckpt.Load(filepath.Join(dir, ckpt.FileName(k))); err != nil || s.Step != k {
		t.Fatalf("Load(boundary %d) = %v, %v", k, s, err)
	}
}
