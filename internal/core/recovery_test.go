package core_test

// Recovery where it fails typed: program panics, out-of-range sends, failed
// writes, mismatched or corrupt checkpoints, stops and budgets. That a
// kill at any boundary resumes bit-identically is the matrix's
// (TestEngineMatrix's kill cells); see docs/ROBUSTNESS.md.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// runRec executes cfg with opts under w workers with a fresh recorder,
// returning result, profile, and error.
func runRec(g *graph.Graph, w int, cfg core.Config, opts ...core.Option) (*core.Result, []*trace.Phase, error) {
	defer par.SetWorkers(par.SetWorkers(w))
	rec := trace.NewRecorder()
	cfg.Graph = g
	cfg.Recorder = rec
	for _, opt := range opts {
		opt(&cfg)
	}
	res, err := core.Run(cfg)
	return res, rec.Phases(), err
}

// mustGraph is a generated graph whose parameters are known to be valid.
func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// rmat is the RMAT graph of the given scale (edge factor 8) the drills run on.
func rmat(scale int, seed uint64) *graph.Graph {
	return mustGraph(gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed}))
}

// ccMin is the program most drills run: CC folding by Min.
func ccMin() core.Config { return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min} }

func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// killedAt runs cfg on g at three workers until a kill at boundary k, and
// returns the checkpoint it wrote there, the only one.
func killedAt(t *testing.T, g *graph.Graph, cfg core.Config, k int64) string {
	t.Helper()
	policy := &ckpt.Policy{Dir: t.TempDir(), EveryN: 1 << 30, Hooks: (&faultinject.Plan{KillAt: map[int64]bool{k: true}}).Hooks()}
	_, _, err := runRec(g, 3, cfg, core.WithCheckpoint(policy))
	var ie *core.InterruptedError
	if !errors.As(err, &ie) || ie.Superstep != int(k) || ie.CheckpointPath == "" {
		t.Fatalf("kill@%d: want InterruptedError with a checkpoint, got %v", k, err)
	}
	return ie.CheckpointPath
}

// resumes runs mk's program on g at w workers from the checkpoint at path
// and checks that it ends as an undisturbed run does, retry counts aside:
// it returns those.
func resumes(t *testing.T, g *graph.Graph, w int, mk func() core.Config, path string) []int64 {
	t.Helper()
	base, basePh, err := runRec(g, w, mk())
	if err != nil {
		t.Fatal(err)
	}
	res, ph, err := runRec(g, w, mk(), core.WithResume(path))
	if err != nil {
		t.Fatalf("resume from %s: %v", filepath.Base(path), err)
	}
	retries := res.RetriesPerStep
	base.RetriesPerStep, res.RetriesPerStep = nil, nil
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("resumed from %s, the Result differs from an undisturbed run's", filepath.Base(path))
	}
	comparePhases(t, basePh, ph)
	return retries
}

// isEmergency reports whether path names an emergency checkpoint.
func isEmergency(path string) bool { return strings.HasPrefix(filepath.Base(path), "emergency-") }

// TestProgramPanicRecovered: a vertex-program panic mid-superstep becomes
// a typed ProgramError (the same at every worker count) with a stack, an
// emergency checkpoint of the last completed boundary is written, and the
// unwrapped program resumes from it.
func TestProgramPanicRecovered(t *testing.T) {
	g := rmat(10, 7)
	target := int64(101)
	for g.Degree(target) == 0 {
		target++
	}
	plan := mustPlan(t, fmt.Sprintf("panic@1:%d", target))
	for _, w := range []int{1, 3, 8} {
		cfg := ccMin()
		cfg.Program = plan.WrapProgram(cfg.Program)
		_, _, err := runRec(g, w, cfg, core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()}))
		var pe *core.ProgramError
		if !errors.As(err, &pe) || pe.Vertex != target || pe.Superstep != 1 || pe.Phase != "compute" || len(pe.Stack) == 0 {
			t.Fatalf("w=%d: want a ProgramError with a stack at vertex %d, superstep 1, compute; got %v", w, target, err)
		}
		if !isEmergency(pe.CheckpointPath) {
			t.Fatalf("w=%d: emergency checkpoint path = %q", w, pe.CheckpointPath)
		}
		resumes(t, g, w, ccMin, pe.CheckpointPath)
	}
}

// TestPanicWithoutBoundary: a panic before any boundary completes (step 0,
// or the InitialState sweep) yields a ProgramError with no checkpoint.
func TestPanicWithoutBoundary(t *testing.T) {
	g := rmat(8, 1)
	_, _, err := runRec(g, 3, core.Config{Program: mustPlan(t, "panic@0:17").WrapProgram(bspalg.CCProgram{})},
		core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()}))
	var pe *core.ProgramError
	if !errors.As(err, &pe) || pe.Vertex != 17 || pe.Superstep != 0 || pe.CheckpointPath != "" {
		t.Fatalf("want a ProgramError at vertex 17, superstep 0, no checkpoint; got %v", err)
	}
	_, _, err = runRec(g, 3, core.Config{Program: mustPlan(t, "panic@init:5").WrapProgram(bspalg.CCProgram{})})
	if !errors.As(err, &pe) || pe.Vertex != 5 || pe.Superstep != -1 || pe.Phase != "init" {
		t.Fatalf("want a ProgramError at vertex 5, superstep -1, init; got %v", err)
	}
}

// badSend has one vertex send to vertex 3, then open a run to dest: a
// vertex outside the graph in every row of TestSendOutOfRange.
func badSend(from, dest int64) program {
	return func(v *core.VertexContext) {
		if v.Superstep() == 0 && v.ID() == from {
			v.Send(3, 1)
			v.Send(3, 2)
			v.Send(dest, 7)
		}
		v.VoteToHalt()
	}
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
					_, _, err := runRec(g, w, core.Config{Program: badSend(from, dest), SparseActivation: sparse})
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

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) (names []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCheckpointWriteFailure: an injected mid-stream write failure aborts
// the run with a typed WriteError, leaves earlier checkpoints loadable,
// and leaves no temp-file litter or partial final file.
func TestCheckpointWriteFailure(t *testing.T) {
	dir := t.TempDir()
	_, _, err := runRec(rmat(8, 1), 3, ccMin(), core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: mustPlan(t, "failwrite@2").Hooks()}))
	var we *ckpt.WriteError
	if !errors.As(err, &we) || !errors.Is(err, faultinject.ErrInjectedWrite) {
		t.Fatalf("want a WriteError wrapping the injected failure, got %v", err)
	}
	want := []string{ckpt.FileName(0), ckpt.FileName(1)}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, want) {
		t.Fatalf("dir after failed write = %v, want %v", names, want)
	}
	for _, name := range want {
		if _, err := ckpt.Load(filepath.Join(dir, name)); err != nil {
			t.Fatalf("earlier checkpoint %s unloadable: %v", name, err)
		}
	}
}

// TestResumeRejectsMismatch: resuming with the wrong program type, program
// parameters, engine option, graph or graph representation is a typed
// MismatchError naming the differing field. A representation change shows
// first in the graph CRC, which hashes the stored bytes.
func TestResumeRejectsMismatch(t *testing.T) {
	g := rmat(8, 1)
	bfs := core.Config{Program: bspalg.BFSProgram{Source: 0}}
	path := killedAt(t, g, bfs, 1)
	check := func(name string, g *graph.Graph, cfg core.Config, fields ...string) *ckpt.MismatchError {
		t.Helper()
		_, _, err := runRec(g, 3, cfg, core.WithResume(path))
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || !slices.Contains(fields, me.Field) {
			t.Fatalf("%s: want a MismatchError on %v, got %v", name, fields, err)
		}
		return me
	}
	check("wrong program", g, core.Config{Program: bspalg.CCProgram{}}, "program")
	if me := check("wrong source", g, core.Config{Program: bspalg.BFSProgram{Source: 5}}, "program"); me.Got != "bspalg.BFSProgram{Source:0}" || me.Want != "bspalg.BFSProgram{Source:5}" {
		t.Fatalf("wrong source: mismatch %+v, want the two BFSProgram values", me)
	}
	check("wrong sparse mode", g, core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: true}, "sparse activation")
	check("wrong graph", rmat(8, 2), bfs, "graph checksum", "edges")
	check("flat to compressed", core.MustCompress(g), bfs, "graph checksum", "representation")
	path = killedAt(t, core.MustCompress(g), bfs, 1)
	check("compressed to flat", g, bfs, "graph checksum", "representation")
}

// TestPolicyNeedsDir: a checkpoint policy says where checkpoints go, so
// one without a directory is refused before superstep 0. A run that
// resumes without taking new checkpoints passes no policy at all.
func TestPolicyNeedsDir(t *testing.T) {
	_, _, err := runRec(gen.Path(8), 1, core.Config{Program: bspalg.CCProgram{}}, core.WithCheckpoint(&ckpt.Policy{EveryN: 2}))
	if err == nil || !strings.Contains(err.Error(), "checkpoint policy without a directory") {
		t.Fatalf("policy without a Dir: got %v", err)
	}
}

// TestResumeRejectsCorruption: resuming from a bit-flipped or truncated
// checkpoint is a typed CorruptError, surfaced through core.Run.
func TestResumeRejectsCorruption(t *testing.T) {
	g := rmat(8, 1)
	data, err := os.ReadFile(killedAt(t, g, core.Config{Program: bspalg.CCProgram{}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(string) error{
		"bit-flipped": func(p string) error { return faultinject.FlipBit(p, int64(len(data)/2), 3) },
		"truncated":   func(p string) error { return faultinject.TruncateTail(p, 33) },
	} {
		path := filepath.Join(t.TempDir(), name+".gxckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := damage(path); err != nil {
			t.Fatal(err)
		}
		_, _, err = runRec(g, 3, core.Config{Program: bspalg.CCProgram{}}, core.WithResume(path))
		var ce *ckpt.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s resume: want CorruptError, got %v", name, err)
		}
	}
}

// TestCheckpointCadenceAndRetention: EveryN gates disk writes, Keep prunes
// old checkpoints, and the newest one resumes to a bit-identical result.
func TestCheckpointCadenceAndRetention(t *testing.T) {
	g := rmat(8, 1)
	dir := t.TempDir()
	if _, _, err := runRec(g, 3, ccMin(), core.WithCheckpoint(&ckpt.Policy{Dir: dir, EveryN: 2, Keep: 2})); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 2 {
		t.Fatalf("retention: dir has %v, want 2 newest even-boundary checkpoints", names)
	}
	for _, name := range names {
		var step int64
		if _, err := fmt.Sscanf(name, "ckpt-%d", &step); err != nil || name != ckpt.FileName(step) || (step+1)%2 != 0 {
			t.Fatalf("checkpoint %s is not one of the EveryN=2 cadence", name)
		}
	}
	resumes(t, g, 3, ccMin, filepath.Join(dir, names[1])) // ReadDir sorts by name, so by step
}

// TestStopChannel: a closed Stop channel interrupts at the first boundary;
// with a policy the interrupt carries a resumable checkpoint, without one
// it carries none.
func TestStopChannel(t *testing.T) {
	g := rmat(8, 1)
	ch := make(chan struct{})
	close(ch)
	for _, policy := range []*ckpt.Policy{{Dir: t.TempDir()}, nil} {
		_, _, err := runRec(g, 3, ccMin(), core.WithStop(ch), core.WithCheckpoint(policy))
		var ie *core.InterruptedError
		if !errors.As(err, &ie) || ie.Superstep != 0 || (ie.CheckpointPath == "") != (policy == nil) {
			t.Fatalf("policy %v: want an InterruptedError at superstep 0, a checkpoint with the policy; got %v", policy, err)
		}
		if policy != nil {
			resumes(t, g, 3, ccMin, ie.CheckpointPath)
		}
	}
}

// TestBudgetExceeded: a program that never halts outruns MaxSupersteps,
// and the typed BudgetError carries the last superstep's counters.
func TestBudgetExceeded(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 1}))
	n := g.NumVertices()
	_, _, err := runRec(g, 3, core.Config{Program: program(func(v *core.VertexContext) { v.Send(v.ID(), 1) }), MaxSupersteps: 5})
	var be *core.BudgetError
	if !errors.As(err, &be) || be.MaxSupersteps != 5 || be.LastActive != n || be.LastSent != n || be.LastDelivered != n || be.Live != n {
		t.Fatalf("want a BudgetError with bound 5 and all counters %d, got %v", n, err)
	}
}

// TestUnboundedSupersteps: MaxSupersteps < 0 lifts the bound, so a program
// that converges only after 1200 supersteps — past the old fixed default
// of 1000 — finishes.
func TestUnboundedSupersteps(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	late := program(func(v *core.VertexContext) {
		if v.Superstep() >= 1200 {
			v.VoteToHalt()
		} else {
			v.Send(v.ID(), 1)
		}
	})
	if res, _, err := runRec(g, 1, core.Config{Program: late, MaxSupersteps: -1}); err != nil || res.Supersteps <= 1000 {
		t.Fatalf("unbounded run: %v, want over 1000 supersteps", err)
	}
}

// TestCheckpointObsSpan: runs with a checkpoint policy emit a "checkpoint"
// span that reaches the report sink.
func TestCheckpointObsSpan(t *testing.T) {
	r := obs.NewReport()
	cfg := ccMin()
	cfg.Obs = r
	if _, _, err := runRec(rmat(8, 1), 2, cfg, core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()})); err != nil {
		t.Fatal(err)
	}
	reportHas(t, r, "checkpoint")
}

// TestScheduleFingerprintMismatch: the fingerprint names the sweep
// partition — aggregator fold trees follow chunk boundaries, so a run must
// never resume under boundaries it did not start with. Checkpoints written
// by an engine that cut its ranges anywhere (a full scan said "degree", a
// sparse sweep "ranges") or cut sparse sweeps differently (a sparse "degree")
// are typed mismatches; the engine's own, "degree64" and "ranges64", resume.
func TestScheduleFingerprintMismatch(t *testing.T) {
	g := gen.Star(1 << 10)
	for _, tc := range []struct {
		sparse   bool
		want     string
		oldNames []string
	}{
		{sparse: true, want: "ranges64", oldNames: []string{"ranges", "degree"}},
		{sparse: false, want: "degree64", oldNames: []string{"degree"}},
	} {
		mk := func() core.Config { c := ccMin(); c.SparseActivation = tc.sparse; return c }
		path := killedAt(t, g, mk(), 1)
		snap, err := ckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if snap.FP.Schedule != tc.want {
			t.Fatalf("sparse=%v checkpoint names partition %q, want %s", tc.sparse, snap.FP.Schedule, tc.want)
		}
		for _, name := range tc.oldNames {
			snap.FP.Schedule = name
			old, err := new(ckpt.Writer).WriteFile(t.TempDir(), snap, "old.gxckpt", nil)
			if err != nil {
				t.Fatal(err)
			}
			var me *ckpt.MismatchError
			if _, _, err := runRec(g, 1, mk(), core.WithResume(old)); !errors.As(err, &me) || me.Field != "chunk schedule" || me.Got != name || me.Want != tc.want {
				t.Fatalf("sparse=%v checkpoint under partition %q: want a chunk schedule MismatchError %s vs %s, got %v", tc.sparse, name, name, tc.want, err)
			}
		}
		resumes(t, g, 1, mk, path)
	}
}

// reportHas fails t unless r's rendering contains want.
func reportHas(t *testing.T, r *obs.Report, want string) {
	t.Helper()
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, buf.String())
	}
}
