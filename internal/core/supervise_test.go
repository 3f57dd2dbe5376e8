package core_test

// The run supervisor, end to end: bounded deterministic retry (a transient
// fault at ANY superstep is absorbed and the run's Result and trace
// profile stay bit-identical to a fault-free run at any worker count),
// retry exhaustion, watchdog deadlines (per-superstep stall and whole-run
// timeout), and engine-level resume through the checkpoint fallback chain.
// See docs/ROBUSTNESS.md.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
)

// transientStep panics on its first `count` Compute calls of one superstep
// — any vertex, so it fires at every superstep that computes at all — then
// passes through. Fingerprint identity and pull capability forward to the
// inner program, like the faultinject wrapper.
type transientStep struct {
	inner     core.Program
	step      int64
	remaining atomic.Int64
}

func newTransientStep(inner core.Program, step int, count int64) *transientStep {
	f := &transientStep{inner: inner, step: int64(step)}
	f.remaining.Store(count)
	return f
}

func (f *transientStep) InitialState(g *graph.Graph, v int64) int64 {
	return f.inner.InitialState(g, v)
}

func (f *transientStep) Compute(v *core.VertexContext) {
	if int64(v.Superstep()) == f.step && f.remaining.Add(-1) >= 0 {
		panic(fmt.Sprintf("supervise_test: transient fault at superstep %d", v.Superstep()))
	}
	f.inner.Compute(v)
}

func (f *transientStep) ProgramName() string { return core.ProgramNameOf(f.inner) }

// takeRetries detaches Result.RetriesPerStep for separate comparison (the
// rest of the Result is compared with DeepEqual against a fault-free run,
// whose retry counts are all zero by construction).
func takeRetries(t *testing.T, res *core.Result) []int64 {
	t.Helper()
	if len(res.RetriesPerStep) != res.Supersteps {
		t.Fatalf("RetriesPerStep has %d entries for %d supersteps", len(res.RetriesPerStep), res.Supersteps)
	}
	rp := res.RetriesPerStep
	res.RetriesPerStep = nil
	return rp
}

func assertRetries(t *testing.T, rp []int64, step int, want int64) {
	t.Helper()
	for s, r := range rp {
		expect := int64(0)
		if s == step {
			expect = want
		}
		if r != expect {
			t.Fatalf("RetriesPerStep = %v; want %d at step %d and 0 elsewhere", rp, want, step)
		}
	}
}

// TestRetryDeterminismMatrix injects a one-shot transient panic at every
// superstep of three program shapes (BFS under the engine's own
// direction, CC with combiner, aggregator-carrying triangle counting),
// under both broadcast treatments, at 1, 3, and 8 workers. Every retried
// run must be bit-identical — Result and trace profile — to a fault-free
// supervised run.
func TestRetryDeterminismMatrix(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}}
		}},
		{"cc/combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"triangles/aggregator", func() core.Config {
			return core.Config{Program: bspalg.TCProgram{}, MaxMessagesPerSuperstep: 1 << 26}
		}},
	}
	for _, tc := range cases {
		for _, expand := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/expand=%v", tc.name, expand), func(t *testing.T) {
				mk := func() core.Config {
					cfg := tc.mk()
					core.WithExpandBroadcasts(expand)(&cfg)
					cfg.MaxRetries = 2
					return cfg
				}
				base, basePh, err := runRec(g, 1, mk())
				if err != nil {
					t.Fatal(err)
				}
				assertRetries(t, takeRetries(t, base), -1, 0)
				for k := 0; k < base.Supersteps; k++ {
					if base.ActivePerStep[k] == 0 {
						continue // no Compute call to fault
					}
					for _, w := range []int{1, 3, 8} {
						cfg := mk()
						cfg.Program = newTransientStep(cfg.Program, k, 1)
						res, ph, err := runRec(g, w, cfg)
						if err != nil {
							t.Fatalf("fault@%d w=%d: %v", k, w, err)
						}
						assertRetries(t, takeRetries(t, res), k, 1)
						if !reflect.DeepEqual(base, res) {
							t.Fatalf("fault@%d w=%d: retried Result differs from fault-free run\n  supersteps %d vs %d\n  active %v vs %v\n  msgs %v vs %v\n  aggregates %v vs %v",
								k, w, base.Supersteps, res.Supersteps,
								base.ActivePerStep, res.ActivePerStep,
								base.MessagesPerStep, res.MessagesPerStep,
								base.Aggregates, res.Aggregates)
						}
						comparePhases(t, basePh, ph)
					}
				}
			})
		}
	}
}

// ccFaultTarget picks a vertex that is guaranteed active in superstep 1 of
// a CC run: any vertex with an edge receives its neighbors' initial labels.
func ccFaultTarget(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 && v > 50 {
			return v
		}
	}
	t.Fatal("no suitable fault target")
	return -1
}

// TestRetryCountsAndObservability: a panicn fault that fires twice costs
// exactly two retries, counted in Result.RetriesPerStep, the metrics
// registry, and the report sink's retry column.
func TestRetryCountsAndObservability(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := ccFaultTarget(t, g)
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, MaxRetries: 3}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}
	takeRetries(t, base)

	plan, err := faultinject.ParsePlan(fmt.Sprintf("panicn@1:%d:2", target))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(nil)
	r := obs.NewReport()
	cfg := mk()
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Obs = obs.Tee(m, r)
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRetries(t, takeRetries(t, res), 1, 2)
	if !reflect.DeepEqual(base, res) {
		t.Fatal("retried Result differs from fault-free run")
	}
	comparePhases(t, basePh, ph)
	if got := m.Registry().Counter("graphxmt_retries_total", "").Value(); got != 2 {
		t.Fatalf("graphxmt_retries_total = %d, want 2", got)
	}
	var buf strings.Builder
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "retry") {
		t.Fatalf("report missing retry column:\n%s", buf.String())
	}
}

// TestRetryExhausted: a permanent fault exhausts MaxRetries and surfaces a
// typed RetryExhaustedError wrapping the final ProgramError, with the
// emergency checkpoint and flight-recorder dump locating the last good
// boundary; resuming from that checkpoint with the fault removed completes
// bit-identically.
func TestRetryExhausted(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := ccFaultTarget(t, g)
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
	dir := t.TempDir()
	cfg := mk()
	cfg.MaxRetries = 2
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Obs = &obs.Store{}
	_, _, err = runRec(g, 3, cfg)
	var re *core.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want RetryExhaustedError, got %v", err)
	}
	if re.Superstep != 1 || re.Attempts != 3 {
		t.Fatalf("RetryExhaustedError = superstep %d, attempts %d; want 1, 3", re.Superstep, re.Attempts)
	}
	var pe *core.ProgramError
	if !errors.As(err, &pe) || pe.Vertex != target {
		t.Fatalf("RetryExhaustedError does not unwrap to the ProgramError: %v", err)
	}
	if re.CheckpointPath == "" || !strings.Contains(filepath.Base(re.CheckpointPath), "emergency-") {
		t.Fatalf("emergency checkpoint path = %q", re.CheckpointPath)
	}
	if re.FlightRecorderPath == "" {
		t.Fatal("no flight-recorder dump recorded")
	}

	cfg = mk()
	cfg.MaxRetries = 2
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Resume = re.CheckpointPath
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("resume from exhaustion checkpoint: %v", err)
	}
	takeRetries(t, res)
	if !reflect.DeepEqual(base, res) {
		t.Fatal("resumed Result differs from uninterrupted run")
	}
	comparePhases(t, basePh, ph)

	// Without retries configured the same fault is a plain ProgramError even
	// when the supervisor is active for timeouts.
	cfg = mk()
	cfg.StepTimeout = time.Hour
	cfg.Program = plan.WrapProgram(bspalg.CCProgram{})
	_, _, err = runRec(g, 3, cfg)
	if errors.As(err, &re) {
		t.Fatalf("timeouts-only supervisor wrapped the fault in RetryExhaustedError: %v", err)
	}
	if !errors.As(err, &pe) {
		t.Fatalf("want ProgramError, got %v", err)
	}
}

// TestRetryThenKillResume: a superstep retried from the in-memory snapshot,
// then a kill at a later boundary, then resume — the retry count survives
// the checkpoint round trip and the final run is bit-identical at every
// worker count.
func TestRetryThenKillResume(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	target := ccFaultTarget(t, g)
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, MaxRetries: 2}
	}
	base, basePh, err := runRec(g, 1, mk())
	if err != nil {
		t.Fatal(err)
	}
	takeRetries(t, base)

	for _, w := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			dir := t.TempDir()
			plan, err := faultinject.ParsePlan(fmt.Sprintf("panicn@1:%d:1;kill@2", target))
			if err != nil {
				t.Fatal(err)
			}
			cfg := mk()
			cfg.Program = plan.WrapProgram(cfg.Program)
			cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
			_, _, err = runRec(g, w, cfg)
			var ie *core.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("want InterruptedError, got %v", err)
			}
			if ie.Superstep != 2 || ie.CheckpointPath == "" {
				t.Fatalf("InterruptedError = %+v; want superstep 2 with checkpoint", ie)
			}

			cfg = mk()
			cfg.Checkpoint = &ckpt.Policy{Dir: dir}
			cfg.Resume = ie.CheckpointPath
			res, ph, err := runRec(g, w, cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			// The pre-kill retry at superstep 1 rode through the snapshot.
			assertRetries(t, takeRetries(t, res), 1, 1)
			if !reflect.DeepEqual(base, res) {
				t.Fatal("resumed Result differs from fault-free run")
			}
			comparePhases(t, basePh, ph)
		})
	}
}

// TestWatchdogStall: a stalled superstep trips the StepTimeout watchdog,
// which persists an emergency checkpoint and flight dump from the watchdog
// goroutine and surfaces a typed TimeoutError at the next boundary; the
// checkpoint resumes bit-identically.
func TestWatchdogStall(t *testing.T) {
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

	plan, err := faultinject.ParsePlan("slowstep@1:600")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := obs.NewMetrics(nil)
	cfg := mk()
	cfg.StepTimeout = 60 * time.Millisecond
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Obs = obs.Tee(m, &obs.Store{})
	_, _, err = runRec(g, 3, cfg)
	var te *core.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want TimeoutError, got %v", err)
	}
	if !te.Stalled || te.Superstep != 1 || te.Limit != 60*time.Millisecond {
		t.Fatalf("TimeoutError = %+v; want stalled superstep 1", te)
	}
	if te.CheckpointPath == "" || !strings.Contains(filepath.Base(te.CheckpointPath), "emergency-") {
		t.Fatalf("stall emergency checkpoint = %q", te.CheckpointPath)
	}
	if te.FlightRecorderPath == "" {
		t.Fatal("stall produced no flight-recorder dump")
	}
	if got := m.Registry().Counter("graphxmt_watchdog_stalls_total", "").Value(); got != 1 {
		t.Fatalf("graphxmt_watchdog_stalls_total = %d, want 1", got)
	}

	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Resume = te.CheckpointPath
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("resume from stall checkpoint: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("resumed Result differs from unstalled run")
	}
	comparePhases(t, basePh, ph)
}

// TestWatchdogWriteOutlivesStall: the watchdog fires on a superstep that
// then completes, and its emergency write of the last boundary is held
// open while the run records further boundaries. A boundary refills the
// arrays of the snapshot two back, so the one the write reads comes up for
// reuse at the second boundary after it, which must wait for the write;
// the first may not. The emergency file is, byte for byte, the periodic
// checkpoint of the boundary it names. Meant to be run under -race too.
func TestWatchdogWriteOutlivesStall(t *testing.T) {
	const stall = 3 // the stalled superstep; its emergency write holds boundary 2
	plan, err := faultinject.ParsePlan(fmt.Sprintf("slowstep@%d:400", stall))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		wrapped = map[int64]int{}
		during  int // boundaries written while the emergency write was held
	)
	reuse := make(chan struct{}) // the write of the boundary that reuses the pinned arrays
	hooks := &ckpt.Hooks{WrapWrite: func(step int64, w io.Writer) io.Writer {
		if strings.HasPrefix(filepath.Base(w.(*os.File).Name()), "emergency-") {
			if step != stall-1 {
				t.Errorf("emergency write of boundary %d, want %d", step, stall-1)
				return w
			}
			// The watchdog's write, called before it reads the snapshot.
			select {
			case <-reuse:
			case <-time.After(time.Second):
			}
			mu.Lock()
			during = wrapped[stall]
			mu.Unlock()
			return w
		}
		mu.Lock()
		wrapped[step]++
		mu.Unlock()
		if step == stall+1 {
			close(reuse)
		}
		return w
	}}
	dir := t.TempDir()
	cfg := core.Config{
		Program:     plan.WrapProgram(bspalg.BFSProgram{Source: 0}),
		StepTimeout: 100 * time.Millisecond,
		Checkpoint:  &ckpt.Policy{Dir: dir, Hooks: hooks},
	}
	_, _, err = runRec(gen.Path(200), 2, cfg)
	var te *core.TimeoutError
	if !errors.As(err, &te) || !te.Stalled || te.Superstep != stall {
		t.Fatalf("want a stall TimeoutError at superstep %d, got %v", stall, err)
	}
	if want := filepath.Join(dir, ckpt.EmergencyFileName(stall-1)); te.CheckpointPath != want {
		t.Fatalf("emergency checkpoint %q, want %q", te.CheckpointPath, want)
	}
	if during != 1 {
		t.Errorf("the boundary after the stalled superstep was written %d times while the emergency write was held, want 1", during)
	}
	emergency, err := os.ReadFile(te.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := os.ReadFile(filepath.Join(dir, ckpt.FileName(stall-1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(emergency, periodic) {
		t.Fatalf("emergency checkpoint (%d bytes) differs from the periodic checkpoint of boundary %d (%d bytes)", len(emergency), stall-1, len(periodic))
	}
	if s, err := ckpt.Load(te.CheckpointPath); err != nil || s.Step != stall-1 {
		t.Fatalf("Load(emergency) = step %v, %v", s, err)
	}
}

// TestWatchdogStalledTerminalSuperstep: a stall during the final superstep
// does not cost the finished run its Result — the stall is still observed
// (metrics), but the run returns normally.
func TestWatchdogStalledTerminalSuperstep(t *testing.T) {
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
	last := base.Supersteps - 1

	plan, err := faultinject.ParsePlan(fmt.Sprintf("slowstep@%d:600", last))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(nil)
	cfg := mk()
	cfg.StepTimeout = 60 * time.Millisecond
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Obs = m
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("stalled terminal superstep returned %v; want the finished Result", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("Result differs from unstalled run")
	}
	comparePhases(t, basePh, ph)
	if got := m.Registry().Counter("graphxmt_watchdog_stalls_total", "").Value(); got != 1 {
		t.Fatalf("graphxmt_watchdog_stalls_total = %d, want 1", got)
	}
}

// TestRunTimeout: an expired whole-run deadline ends the run at the next
// boundary like a Stop signal — checkpoint written, typed TimeoutError
// (Stalled=false) — and the checkpoint resumes bit-identically.
func TestRunTimeout(t *testing.T) {
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

	plan, err := faultinject.ParsePlan("slowstep@1:400")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := mk()
	cfg.RunTimeout = 150 * time.Millisecond
	cfg.Program = plan.WrapProgram(cfg.Program)
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	_, _, err = runRec(g, 3, cfg)
	var te *core.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want TimeoutError, got %v", err)
	}
	if te.Stalled || te.Superstep != 1 || te.CheckpointPath == "" {
		t.Fatalf("TimeoutError = %+v; want run deadline after superstep 1 with checkpoint", te)
	}

	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Resume = te.CheckpointPath
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("resume after run timeout: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("resumed Result differs from undeadlined run")
	}
	comparePhases(t, basePh, ph)

	// Without a checkpoint directory the deadline still ends the run, just
	// without a resume path.
	plan, err = faultinject.ParsePlan("slowstep@1:400")
	if err != nil {
		t.Fatal(err)
	}
	cfg = mk()
	cfg.RunTimeout = 150 * time.Millisecond
	cfg.Program = plan.WrapProgram(cfg.Program)
	_, _, err = runRec(g, 3, cfg)
	if !errors.As(err, &te) || te.CheckpointPath != "" {
		t.Fatalf("deadline without policy: got %v; want TimeoutError with no checkpoint", err)
	}
}

// TestResumeLatestFallback: engine-level auto-resume walks the checkpoint
// chain newest-first past damaged snapshots (torn writes, bit flips),
// counts each skip in the fallback metric, and completes bit-identically.
func TestResumeLatestFallback(t *testing.T) {
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
	if base.Supersteps < 5 {
		t.Fatalf("test needs >= 5 supersteps, got %d", base.Supersteps)
	}

	// A torn write at boundary 2 leaves a truncated ckpt-2 under the final
	// name, reported as success; the kill at boundary 3 hands back ckpt-3,
	// which we then bit-flip — so auto-resume must skip BOTH newest
	// snapshots and land on ckpt-1.
	dir := t.TempDir()
	plan, err := faultinject.ParsePlan("tornwrite@2;kill@3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
	_, _, err = runRec(g, 3, cfg)
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	newest := filepath.Join(dir, ckpt.FileName(3))
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(newest, fi.Size()/2, 2); err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics(nil)
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.ResumeLatest = true
	cfg.Obs = m
	res, ph, err := runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("auto-resume: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("auto-resumed Result differs from uninterrupted run")
	}
	comparePhases(t, basePh, ph)
	if got := m.Registry().Counter("graphxmt_ckpt_fallback_total", "").Value(); got != 2 {
		t.Fatalf("graphxmt_ckpt_fallback_total = %d, want 2 skipped snapshots", got)
	}

	// An empty directory is a fresh start, not an error.
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: t.TempDir()}
	cfg.ResumeLatest = true
	res, ph, err = runRec(g, 3, cfg)
	if err != nil {
		t.Fatalf("auto-resume with no checkpoints: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("fresh auto-resume run differs")
	}
	comparePhases(t, basePh, ph)

	// A directory holding only damaged snapshots is a hard error. (Fresh
	// directory: the auto-resume run above rewrote dir's chain.)
	dir2 := t.TempDir()
	plan, err = faultinject.ParsePlan("kill@2")
	if err != nil {
		t.Fatal(err)
	}
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir2, Hooks: plan.Hooks()}
	_, _, err = runRec(g, 3, cfg)
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	for step := int64(0); step <= 2; step++ {
		if err := faultinject.TruncateTail(filepath.Join(dir2, ckpt.FileName(step)), 30); err != nil {
			t.Fatal(err)
		}
	}
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir2}
	cfg.ResumeLatest = true
	_, _, err = runRec(g, 3, cfg)
	var nv *ckpt.NoValidCheckpointError
	if !errors.As(err, &nv) || nv.Skipped != 3 {
		t.Fatalf("exhausted chain: got %v; want NoValidCheckpointError with 3 skips", err)
	}

	// ResumeLatest without a checkpoint directory is a usage error.
	cfg = mk()
	cfg.ResumeLatest = true
	if _, _, err := runRec(g, 3, cfg); err == nil {
		t.Fatal("ResumeLatest without a policy directory accepted")
	}
}
