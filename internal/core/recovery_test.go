package core_test

// Recovery determinism, end to end: a run killed (via the fault-injection
// harness) at ANY superstep boundary and resumed from its checkpoint
// produces a Result and trace profile bit-identical to an uninterrupted
// run, at any host worker count. This is the checkpoint layer's contract
// on top of PR 1's worker-count invariant — see docs/ROBUSTNESS.md.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// recGraph is the recovery-matrix graph: scale 14 (the acceptance bar),
// large enough that sweeps chunk and delivery crosses the parallel
// threshold.
func recGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runRec executes cfg under w workers with a fresh recorder, returning
// result, profile, and error.
func runRec(g *graph.Graph, w int, cfg core.Config) (*core.Result, []*trace.Phase, error) {
	defer par.SetWorkers(par.SetWorkers(w))
	rec := trace.NewRecorder()
	cfg.Graph = g
	cfg.Recorder = rec
	res, err := core.Run(cfg)
	return res, rec.Phases(), err
}

// TestRecoveryMatrix kills a run at every superstep boundary and resumes
// it, for BFS and CC (dense and sparse, with and without combiner) at 1,
// 3, and 8 workers. Resumed Result and profile must be bit-identical to
// the uninterrupted run's.
func TestRecoveryMatrix(t *testing.T) {
	g := recGraph(t)
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs/dense", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}}
		}},
		{"bfs/sparse", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: true}
		}},
		{"cc/combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"cc/sparse-combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
					base, basePh, err := runRec(g, w, tc.mk())
					if err != nil {
						t.Fatal(err)
					}
					// Boundaries exist after supersteps 0..S-2 (the terminal
					// superstep breaks before the boundary).
					for k := 0; k <= base.Supersteps-2; k++ {
						dir := t.TempDir()
						plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
						cfg := tc.mk()
						cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
						_, _, err := runRec(g, w, cfg)
						var ie *core.InterruptedError
						if !errors.As(err, &ie) {
							t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
						}
						if ie.Superstep != k || ie.CheckpointPath == "" {
							t.Fatalf("kill@%d: InterruptedError = %+v", k, ie)
						}

						cfg = tc.mk()
						cfg.Checkpoint = &ckpt.Policy{Dir: dir}
						cfg.Resume = ie.CheckpointPath
						res, ph, err := runRec(g, w, cfg)
						if err != nil {
							t.Fatalf("resume from kill@%d: %v", k, err)
						}
						if !reflect.DeepEqual(base, res) {
							t.Fatalf("kill@%d w=%d: resumed Result differs from uninterrupted run\n  supersteps %d vs %d\n  active %v vs %v",
								k, w, base.Supersteps, res.Supersteps, base.ActivePerStep, res.ActivePerStep)
						}
						comparePhases(t, basePh, ph)
					}
				})
			}
		})
	}
}

// TestRecoveryAggregators: aggregator state (triangle counts) survives
// kill/resume bit-identically, including the PreviousAggregate view.
func TestRecoveryAggregators(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		return core.Config{Program: bspalg.TCProgram{}, MaxMessagesPerSuperstep: 1 << 26}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}
	if base.Aggregates["triangles"] == 0 {
		t.Fatal("test graph has no triangles; aggregator path not exercised")
	}
	for k := 0; k <= base.Supersteps-2; k++ {
		dir := t.TempDir()
		cfg := mk()
		plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
		cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
		_, _, err := runRec(g, 3, cfg)
		var ie *core.InterruptedError
		if !errors.As(err, &ie) {
			t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
		}
		cfg = mk()
		cfg.Checkpoint = &ckpt.Policy{Dir: dir}
		cfg.Resume = ie.CheckpointPath
		res, ph, err := runRec(g, 3, cfg)
		if err != nil {
			t.Fatalf("resume from kill@%d: %v", k, err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("kill@%d: resumed aggregates %v, want %v", k, res.Aggregates, base.Aggregates)
		}
		comparePhases(t, basePh, ph)
	}
}

// TestProgramPanicRecovered: a vertex-program panic mid-superstep becomes
// a typed ProgramError (deterministic across worker counts), an emergency
// checkpoint of the last completed boundary is written, and resuming from
// it completes bit-identically to an uninterrupted run.
func TestProgramPanicRecovered(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var target int64 = -1
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 && v > 100 {
			target = v
			break
		}
	}
	if target < 0 {
		t.Fatal("no suitable panic target")
	}
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.ParsePlan(fmt.Sprintf("panic@1:%d", target))
	if err != nil {
		t.Fatal(err)
	}
	var firstPE *core.ProgramError
	for _, w := range []int{1, 3, 8} {
		dir := t.TempDir()
		cfg := mk()
		cfg.Program = plan.WrapProgram(cfg.Program)
		cfg.Checkpoint = &ckpt.Policy{Dir: dir}
		_, _, err := runRec(g, w, cfg)
		var pe *core.ProgramError
		if !errors.As(err, &pe) {
			t.Fatalf("w=%d: want ProgramError, got %v", w, err)
		}
		if pe.Vertex != target || pe.Superstep != 1 || pe.Phase != "compute" {
			t.Fatalf("w=%d: ProgramError = vertex %d, superstep %d, phase %s; want %d/1/compute",
				w, pe.Vertex, pe.Superstep, pe.Phase, target)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("w=%d: ProgramError has no stack", w)
		}
		if pe.CheckpointPath == "" || !strings.Contains(filepath.Base(pe.CheckpointPath), "emergency-") {
			t.Fatalf("w=%d: emergency checkpoint path = %q", w, pe.CheckpointPath)
		}
		if firstPE == nil {
			firstPE = pe
		} else if firstPE.Vertex != pe.Vertex || firstPE.Superstep != pe.Superstep {
			t.Fatalf("ProgramError coordinates differ across worker counts: %d/%d vs %d/%d",
				firstPE.Vertex, firstPE.Superstep, pe.Vertex, pe.Superstep)
		}

		// The emergency checkpoint captures the boundary after superstep 0;
		// resuming from it with the unwrapped program completes the run.
		cfg = mk()
		cfg.Checkpoint = &ckpt.Policy{Dir: dir}
		cfg.Resume = pe.CheckpointPath
		res, ph, err := runRec(g, w, cfg)
		if err != nil {
			t.Fatalf("w=%d: resume from emergency checkpoint: %v", w, err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("w=%d: resumed result differs from uninterrupted run", w)
		}
		comparePhases(t, basePh, ph)
	}
}

// TestPanicWithoutBoundary: a panic before any boundary completes (step 0,
// or the InitialState sweep) yields a ProgramError with no checkpoint.
func TestPanicWithoutBoundary(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("panic@0:17")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Program:    plan.WrapProgram(bspalg.CCProgram{}),
		Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
	}
	_, _, err = runRec(g, 3, cfg)
	var pe *core.ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProgramError, got %v", err)
	}
	if pe.Vertex != 17 || pe.Superstep != 0 || pe.CheckpointPath != "" {
		t.Fatalf("ProgramError = %+v; want vertex 17, superstep 0, no checkpoint", pe)
	}

	plan, err = faultinject.ParsePlan("panic@init:5")
	if err != nil {
		t.Fatal(err)
	}
	cfg = core.Config{Program: plan.WrapProgram(bspalg.CCProgram{})}
	_, _, err = runRec(g, 3, cfg)
	if !errors.As(err, &pe) {
		t.Fatalf("want ProgramError from init sweep, got %v", err)
	}
	if pe.Vertex != 5 || pe.Superstep != -1 || pe.Phase != "init" {
		t.Fatalf("init ProgramError = vertex %d, superstep %d, phase %s; want 5/-1/init",
			pe.Vertex, pe.Superstep, pe.Phase)
	}
}

// badSend has one vertex send to vertex 3, then open a run to dest: a
// vertex outside the graph in every row of TestSendOutOfRange.
type badSend struct{ from, dest int64 }

func (badSend) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p badSend) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 && v.ID() == p.from {
		v.Send(3, 1)
		v.Send(3, 2)
		v.Send(p.dest, 7)
	}
	v.VoteToHalt()
}

// TestSendOutOfRange: a Send outside [0, n) panics where it is made, so the
// sweep's guard turns it into a ProgramError naming the sender, at any
// worker count, under the full scan and sparse activation alike. 2^32+3
// would alias vertex 3 — the run the sender has open — through a 32-bit
// destination field; 2^40 through none, but lies outside all the same.
func TestSendOutOfRange(t *testing.T) {
	const n = 1 << 15 // superstep 0 takes the parallel sweep at w=3
	g := gen.Path(n)
	from := int64(n/2 + 5)
	for _, dest := range []int64{-1, n, 1<<32 + 3, 1 << 40} {
		for _, w := range []int{1, 3} {
			for _, sparse := range []bool{false, true} {
				t.Run(fmt.Sprintf("dest=%d/w=%d/sparse=%v", dest, w, sparse), func(t *testing.T) {
					_, _, err := runRec(g, w, core.Config{Program: badSend{from: from, dest: dest}, SparseActivation: sparse})
					var pe *core.ProgramError
					if !errors.As(err, &pe) {
						t.Fatalf("want ProgramError, got %v", err)
					}
					if pe.Vertex != from || pe.Superstep != 0 || pe.Phase != "compute" {
						t.Fatalf("ProgramError = vertex %d, superstep %d, phase %s; want %d/0/compute", pe.Vertex, pe.Superstep, pe.Phase, from)
					}
					if want := fmt.Sprintf("Send to vertex %d,", dest); !strings.Contains(fmt.Sprint(pe.Recovered), want) {
						t.Fatalf("panic value %q does not name the destination (%q)", pe.Recovered, want)
					}
				})
			}
		}
	}
}

// TestCheckpointWriteFailure: an injected mid-stream write failure aborts
// the run with a typed WriteError, leaves earlier checkpoints loadable,
// and leaves no temp-file litter or partial final file.
func TestCheckpointWriteFailure(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plan, err := faultinject.ParsePlan("failwrite@2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Program:    bspalg.CCProgram{},
		Combiner:   core.Min,
		Checkpoint: &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()},
	}
	_, _, err = runRec(g, 3, cfg)
	var we *ckpt.WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want WriteError, got %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjectedWrite) {
		t.Fatalf("WriteError does not wrap the injected failure: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{ckpt.FileName(0), ckpt.FileName(1)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("dir after failed write = %v, want %v", names, want)
	}
	for _, name := range want {
		if _, err := ckpt.Load(filepath.Join(dir, name)); err != nil {
			t.Fatalf("earlier checkpoint %s unloadable: %v", name, err)
		}
	}
}

// TestResumeRejectsMismatch: resuming with the wrong program type, program
// parameters, engine option or graph is a typed MismatchError naming the
// differing field.
func TestResumeRejectsMismatch(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plan := &faultinject.Plan{KillAt: map[int64]bool{1: true}}
	cfg := core.Config{
		Program:    bspalg.BFSProgram{Source: 0},
		Checkpoint: &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()},
	}
	_, _, err = runRec(g, 3, cfg)
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	path := ie.CheckpointPath

	check := func(name, wantField string, cfg core.Config) *ckpt.MismatchError {
		t.Helper()
		cfg.Resume = path
		_, _, err := runRec(g, 3, cfg)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("%s: want MismatchError, got %v", name, err)
		}
		if me.Field != wantField {
			t.Fatalf("%s: mismatch field %q, want %q", name, me.Field, wantField)
		}
		return me
	}
	check("wrong program", "program", core.Config{Program: bspalg.CCProgram{}})
	if me := check("wrong source", "program", core.Config{Program: bspalg.BFSProgram{Source: 5}}); me.Got != "bspalg.BFSProgram{Source:0}" || me.Want != "bspalg.BFSProgram{Source:5}" {
		t.Fatalf("wrong source: mismatch %+v, want the two BFSProgram values", me)
	}
	check("wrong sparse mode", "sparse activation", core.Config{
		Program:          bspalg.BFSProgram{Source: 0},
		SparseActivation: true,
	})

	g2, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg = core.Config{
		Program: bspalg.BFSProgram{Source: 0},
		Resume:  path,
	}
	_, _, err = runRec(g2, 3, cfg)
	var me *ckpt.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("wrong graph: want MismatchError, got %v", err)
	}
	if me.Field != "graph checksum" && me.Field != "edges" {
		t.Fatalf("wrong graph: mismatch field %q", me.Field)
	}
}

// TestPolicyNeedsDir: a checkpoint policy says where checkpoints go, so
// one without a directory is refused before superstep 0. A run that
// resumes without taking new checkpoints passes no policy at all.
func TestPolicyNeedsDir(t *testing.T) {
	_, _, err := runRec(gen.Path(8), 1, core.Config{Program: bspalg.CCProgram{}, Checkpoint: &ckpt.Policy{EveryN: 2}})
	if err == nil || !strings.Contains(err.Error(), "checkpoint policy without a directory") {
		t.Fatalf("policy without a Dir: got %v", err)
	}
}

// TestResumeRejectsCorruption: resuming from a bit-flipped or truncated
// checkpoint is a typed CorruptError, surfaced through core.Run.
func TestResumeRejectsCorruption(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plan := &faultinject.Plan{KillAt: map[int64]bool{1: true}}
	cfg := core.Config{
		Program:    bspalg.CCProgram{},
		Checkpoint: &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()},
	}
	_, _, err = runRec(g, 3, cfg)
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}

	flipped := filepath.Join(dir, "flipped.gxckpt")
	data, err := os.ReadFile(ie.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(flipped, int64(len(data)/2), 3); err != nil {
		t.Fatal(err)
	}
	cfg = core.Config{Program: bspalg.CCProgram{}, Resume: flipped}
	_, _, err = runRec(g, 3, cfg)
	var ce *ckpt.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bit-flipped resume: want CorruptError, got %v", err)
	}

	truncated := filepath.Join(dir, "truncated.gxckpt")
	if err := os.WriteFile(truncated, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.TruncateTail(truncated, 33); err != nil {
		t.Fatal(err)
	}
	cfg = core.Config{Program: bspalg.CCProgram{}, Resume: truncated}
	_, _, err = runRec(g, 3, cfg)
	if !errors.As(err, &ce) {
		t.Fatalf("truncated resume: want CorruptError, got %v", err)
	}
}

// TestCheckpointCadenceAndRetention: EveryN gates disk writes, Keep prunes
// old checkpoints, and the newest one resumes to a bit-identical result.
func TestCheckpointCadenceAndRetention(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir, EveryN: 2, Keep: 2}
	if _, _, err := runRec(g, 3, cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("retention: dir has %v, want 2 newest even-boundary checkpoints", names)
	}
	var latest string
	for _, e := range entries {
		var step int64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d", &step); err != nil || e.Name() != ckpt.FileName(step) {
			t.Fatalf("unexpected file %s", e.Name())
		}
		if (step+1)%2 != 0 {
			t.Fatalf("checkpoint %s written off the EveryN=2 cadence", e.Name())
		}
		latest = filepath.Join(dir, e.Name()) // ReadDir sorts by name, so by step
	}
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: t.TempDir()}
	cfg.Resume = latest
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("resume from the latest checkpoint differs from uninterrupted run")
	}
	comparePhases(t, basePh, ph)
}

// TestStopChannel: a closed Stop channel interrupts at the first boundary;
// with a policy the interrupt carries a resumable checkpoint, without one
// it carries none.
func TestStopChannel(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan struct{})
	close(ch)
	dir := t.TempDir()
	cfg := mk()
	cfg.Stop = ch
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	_, _, err = runRec(g, 3, cfg)
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	if ie.Superstep != 0 || ie.CheckpointPath == "" {
		t.Fatalf("InterruptedError = %+v; want superstep 0 with checkpoint", ie)
	}
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Resume = ie.CheckpointPath
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("resume after stop differs from uninterrupted run")
	}
	comparePhases(t, basePh, ph)

	cfg = mk()
	cfg.Stop = ch
	_, _, err = runRec(g, 3, cfg)
	if !errors.As(err, &ie) {
		t.Fatalf("stop without policy: want InterruptedError, got %v", err)
	}
	if ie.CheckpointPath != "" {
		t.Fatalf("stop without policy carried checkpoint %q", ie.CheckpointPath)
	}
}

// chatty never halts: the runaway program the MaxSupersteps guard exists
// for.
type chatty struct{}

func (chatty) InitialState(*graph.Graph, int64) int64 { return 0 }
func (chatty) Compute(v *core.VertexContext)          { v.Send(v.ID(), 1) }

func TestBudgetExceeded(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	_, _, err = runRec(g, 3, core.Config{Program: chatty{}, MaxSupersteps: 5})
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.MaxSupersteps != 5 || be.LastActive != n || be.LastSent != n || be.LastDelivered != n || be.Live != n {
		t.Fatalf("BudgetError = %+v; want bound 5 and all counters %d", be, n)
	}
}

// lateHalter converges only after ~1200 supersteps: under the old fixed
// 1000-step default it would abort, so it exercises MaxSupersteps < 0
// (unbounded).
type lateHalter struct{}

func (lateHalter) InitialState(*graph.Graph, int64) int64 { return 0 }
func (lateHalter) Compute(v *core.VertexContext) {
	if v.Superstep() >= 1200 {
		v.VoteToHalt()
		return
	}
	v.Send(v.ID(), 1)
}

func TestUnboundedSupersteps(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runRec(g, 1, core.Config{Program: lateHalter{}, MaxSupersteps: -1})
	if err != nil {
		t.Fatalf("unbounded run failed: %v", err)
	}
	if res.Supersteps <= 1000 {
		t.Fatalf("run converged in %d supersteps; test needs >1000 to prove the bound is off", res.Supersteps)
	}
}

// TestCheckpointObsSpan: runs with a checkpoint policy emit a "checkpoint"
// span that reaches the report sink.
func TestCheckpointObsSpan(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewReport()
	cfg := core.Config{
		Program:    bspalg.CCProgram{},
		Combiner:   core.Min,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir()},
		Obs:        r,
	}
	if _, _, err := runRec(g, 2, cfg); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoint") {
		t.Fatalf("report missing checkpoint span:\n%s", buf.String())
	}
}
