package core_test

// The supervised boundary's cost and its sharing. ckptRun.record copies
// what the next sweep can overwrite and references, clipped to length, the
// run's append-only histories (per-step counters, retry counts, direction
// decisions, trace phases). These tests pin both halves: a boundary's
// allocation does not grow with the supersteps already completed, and a
// snapshot that shares a history prefix with the live run still holds
// exactly that prefix however far the run appends past it. The last pins
// that a boundary's write runs beside the next sweep.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestBoundaryAllocIndependentOfHistory: a BFS wave relayed down a path,
// one vertex a superstep, under retry (so every boundary is recorded) with
// a recorder (so the profile is history too), cut off by MaxSupersteps at S
// and at 2S. A boundary costs O(n + traffic), so the run that is twice as
// long allocates twice as much; when every boundary re-copied the history
// it allocated close to four times as much.
func TestBoundaryAllocIndependentOfHistory(t *testing.T) {
	const steps = 1000
	g := gen.Path(2*steps + 100)
	allocated := func(maxSteps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := runRec(g, 1, core.Config{
			Program:          bspalg.BFSProgram{Source: 0},
			SparseActivation: true,
			MaxRetries:       1,
			MaxSupersteps:    maxSteps,
		})
		runtime.ReadMemStats(&after)
		var be *core.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("MaxSupersteps=%d: want BudgetError, got %v", maxSteps, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(steps) // warm the engine's pools
	short, long := allocated(steps), allocated(2*steps)
	t.Logf("TotalAlloc: %d supersteps %d B, %d supersteps %d B (%.2fx)", steps, short, 2*steps, long, float64(long)/float64(short))
	if float64(long) > 2.5*float64(short) {
		t.Fatalf("%d supersteps allocated %d B, %d supersteps %d B: %.2fx, want <= 2.5x — the boundary snapshot is re-copying history",
			2*steps, long, steps, short, float64(long)/float64(short))
	}
}

// TestBoundaryHistorySharedAcrossKillAndRetry kills a retried, direction-
// optimized BFS at every boundary, resumes it, and checks two things. The
// resumed Result — RetriesPerStep and DirectionPerStep included — and
// profile are bit-identical to an uninterrupted run's. And every checkpoint
// either run left behind, each of which referenced a prefix of arrays the
// engine went on appending to, holds exactly the final histories' prefix.
func TestBoundaryHistorySharedAcrossKillAndRetry(t *testing.T) {
	// Scale 12: the BFS apex sends enough to be kept as records and pulled.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const faultStep = 2
	// A fresh one-shot fault per run: the run that executes faultStep — the
	// killed one or the resumed one — retries it once.
	mk := func() core.Config {
		return core.Config{Program: newTransientStep(bspalg.BFSProgram{Source: 0}, faultStep, 1), MaxRetries: 2}
	}
	base, basePh, err := runRec(g, 1, mk())
	if err != nil {
		t.Fatal(err)
	}
	assertRetries(t, base.RetriesPerStep, faultStep, 1)
	if len(base.DirectionPerStep) != base.Supersteps || !slices.Contains(base.DirectionPerStep, core.DirPull) {
		t.Fatalf("DirectionPerStep = %v: want one decision per superstep with a pull among them", base.DirectionPerStep)
	}

	for _, w := range []int{1, 3} {
		for k := 0; k <= base.Supersteps-2; k++ {
			t.Run(fmt.Sprintf("w=%d/kill@%d", w, k), func(t *testing.T) {
				dir := t.TempDir()
				plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
				cfg := mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
				_, _, err := runRec(g, w, cfg)
				var ie *core.InterruptedError
				if !errors.As(err, &ie) || ie.CheckpointPath == "" {
					t.Fatalf("want InterruptedError with a checkpoint, got %v", err)
				}

				cfg = mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir}
				cfg.Resume = ie.CheckpointPath
				res, ph, err := runRec(g, w, cfg)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("resumed Result differs from uninterrupted run\n  retries %v vs %v\n  directions %v vs %v",
						base.RetriesPerStep, res.RetriesPerStep, base.DirectionPerStep, res.DirectionPerStep)
				}
				comparePhases(t, basePh, ph)

				paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gxckpt"))
				if err != nil || len(paths) != base.Supersteps-1 {
					t.Fatalf("checkpoints = %v, %v; want one per boundary (%d)", paths, err, base.Supersteps-1)
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
	res, ph, err := runRec(g, 2, core.Config{Program: prog, Checkpoint: &ckpt.Policy{Dir: dir, Hooks: hooks}})
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
