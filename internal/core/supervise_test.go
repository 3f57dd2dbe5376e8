package core_test

// The run supervisor, end to end: retry counts and exhaustion, watchdog
// deadlines (per-superstep stall and whole-run timeout), and engine-level
// resume through the checkpoint fallback chain. That a transient fault at
// any superstep is absorbed bit-identically is the matrix's
// (TestEngineMatrix's retry cells). See docs/ROBUSTNESS.md.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
// passes through. Fingerprint identity, lanes and auxiliary state forward to
// the inner program, as the faultinject wrapper's do.
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

func (f *transientStep) Lanes() []int64 {
	if p, ok := f.inner.(core.LaneProgram); ok {
		return p.Lanes()
	}
	return nil
}

func (f *transientStep) AuxState() []int64 {
	if p, ok := f.inner.(core.AuxProgram); ok {
		return p.AuxState()
	}
	return nil
}

func assertRetries(t *testing.T, rp []int64, step int, want int64) {
	t.Helper()
	for s, r := range rp {
		if r != map[bool]int64{true: want}[s == step] {
			t.Fatalf("RetriesPerStep = %v; want %d at step %d and 0 elsewhere", rp, want, step)
		}
	}
}

// ccFaultTarget picks a vertex that is guaranteed active in superstep 1 of
// a CC run: any vertex with an edge receives its neighbors' initial labels.
func ccFaultTarget(g *graph.Graph) int64 {
	v := int64(51)
	for g.Degree(v) == 0 {
		v++
	}
	return v
}

// TestRetryCountsAndObservability: a panicn fault that fires twice costs
// exactly two retries, counted in Result.RetriesPerStep, the metrics
// registry, and the report sink's retry column.
func TestRetryCountsAndObservability(t *testing.T) {
	g := rmat(8, 1)
	m, r := obs.NewMetrics(nil), obs.NewReport()
	cfg := ccMin()
	cfg.Program = mustPlan(t, fmt.Sprintf("panicn@1:%d:2", ccFaultTarget(g))).WrapProgram(cfg.Program)
	cfg.Obs = obs.Tee(m, r)
	res, _, err := runRec(g, 3, cfg, core.WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	assertRetries(t, res.RetriesPerStep, 1, 2)
	if got := m.Registry().Counter("graphxmt_retries_total", "").Value(); got != 2 {
		t.Fatalf("graphxmt_retries_total = %d, want 2", got)
	}
	reportHas(t, r, "retry")
}

// TestRetryExhausted: a permanent fault exhausts MaxRetries and surfaces a
// typed RetryExhaustedError wrapping the final ProgramError, with the
// emergency checkpoint and flight-recorder dump locating the last good
// boundary; resuming from that checkpoint with the fault removed completes
// bit-identically. Without retries the same fault is a plain ProgramError,
// even when the supervisor runs for timeouts.
func TestRetryExhausted(t *testing.T) {
	g := rmat(8, 1)
	target := ccFaultTarget(g)
	plan := mustPlan(t, fmt.Sprintf("panic@1:%d", target))
	cfg := ccMin()
	cfg.Program, cfg.Obs = plan.WrapProgram(cfg.Program), &obs.Store{}
	_, _, err := runRec(g, 3, cfg, core.WithRetries(2), core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()}))
	var re *core.RetryExhaustedError
	var pe *core.ProgramError
	if !errors.As(err, &re) || re.Superstep != 1 || re.Attempts != 3 || !errors.As(err, &pe) || pe.Vertex != target {
		t.Fatalf("want a RetryExhaustedError at superstep 1 after 3 attempts, wrapping vertex %d's ProgramError; got %v", target, err)
	}
	if !isEmergency(re.CheckpointPath) || re.FlightRecorderPath == "" {
		t.Fatalf("emergency checkpoint %q, flight-recorder dump %q", re.CheckpointPath, re.FlightRecorderPath)
	}
	resumes(t, g, 3, func() core.Config { c := ccMin(); core.WithRetries(2)(&c); return c }, re.CheckpointPath)

	cfg = ccMin()
	cfg.Program = plan.WrapProgram(cfg.Program)
	if _, _, err = runRec(g, 3, cfg, core.WithStepTimeout(time.Hour)); errors.As(err, &re) || !errors.As(err, &pe) {
		t.Fatalf("timeouts-only supervisor: want a plain ProgramError, got %v", err)
	}
}

// stalled runs ccMin on g at three workers with a stall of ms milliseconds
// in superstep step and the given deadlines, a checkpoint directory when
// dir is set, and sink attached.
func stalled(t *testing.T, g *graph.Graph, step, ms int, stepTimeout, runTimeout time.Duration, dir string, sink obs.Sink) (*core.Result, error) {
	t.Helper()
	cfg := ccMin()
	cfg.Program = mustPlan(t, fmt.Sprintf("slowstep@%d:%d", step, ms)).WrapProgram(cfg.Program)
	cfg.Obs = sink
	opts := []core.Option{core.WithStepTimeout(stepTimeout), core.WithRunTimeout(runTimeout)}
	if dir != "" {
		opts = append(opts, core.WithCheckpoint(&ckpt.Policy{Dir: dir}))
	}
	res, _, err := runRec(g, 3, cfg, opts...)
	return res, err
}

// TestWatchdogStall: a stalled superstep trips the StepTimeout watchdog,
// which persists an emergency checkpoint and flight dump from the watchdog
// goroutine and surfaces a typed TimeoutError at the next boundary; the
// checkpoint resumes bit-identically.
func TestWatchdogStall(t *testing.T) {
	g := rmat(8, 1)
	m := obs.NewMetrics(nil)
	_, err := stalled(t, g, 1, 600, 60*time.Millisecond, 0, t.TempDir(), obs.Tee(m, &obs.Store{}))
	var te *core.TimeoutError
	if !errors.As(err, &te) || !te.Stalled || te.Superstep != 1 || te.Limit != 60*time.Millisecond {
		t.Fatalf("want a stall TimeoutError at superstep 1, got %v", err)
	}
	if !isEmergency(te.CheckpointPath) || te.FlightRecorderPath == "" {
		t.Fatalf("stall emergency checkpoint %q, flight-recorder dump %q", te.CheckpointPath, te.FlightRecorderPath)
	}
	if got := m.Registry().Counter("graphxmt_watchdog_stalls_total", "").Value(); got != 1 {
		t.Fatalf("graphxmt_watchdog_stalls_total = %d, want 1", got)
	}
	resumes(t, g, 3, ccMin, te.CheckpointPath)
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
	plan := mustPlan(t, fmt.Sprintf("slowstep@%d:400", stall))
	var (
		mu      sync.Mutex
		wrapped = map[int64]int{}
		during  int // boundaries written while the emergency write was held
	)
	reuse := make(chan struct{}) // the write of the boundary that reuses the pinned arrays
	hooks := &ckpt.Hooks{WrapWrite: func(step int64, w io.Writer) io.Writer {
		if isEmergency(w.(*os.File).Name()) {
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
	_, _, err := runRec(gen.Path(200), 2, core.Config{Program: plan.WrapProgram(bspalg.BFSProgram{Source: 0})},
		core.WithStepTimeout(100*time.Millisecond), core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: hooks}))
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
	g := rmat(8, 1)
	base, _, err := runRec(g, 3, ccMin())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(nil)
	res, err := stalled(t, g, base.Supersteps-1, 600, 60*time.Millisecond, 0, "", m)
	if err != nil || !reflect.DeepEqual(base, res) {
		t.Fatalf("stalled terminal superstep returned %v; want the unstalled run's Result", err)
	}
	if got := m.Registry().Counter("graphxmt_watchdog_stalls_total", "").Value(); got != 1 {
		t.Fatalf("graphxmt_watchdog_stalls_total = %d, want 1", got)
	}
}

// TestRunTimeout: an expired whole-run deadline ends the run at the next
// boundary like a Stop signal — checkpoint written, typed TimeoutError
// (Stalled=false) — and the checkpoint resumes bit-identically. Without a
// checkpoint directory the deadline still ends the run, with no resume
// path.
func TestRunTimeout(t *testing.T) {
	g := rmat(8, 1)
	for _, dir := range []string{t.TempDir(), ""} {
		_, err := stalled(t, g, 1, 400, 0, 150*time.Millisecond, dir, nil)
		var te *core.TimeoutError
		if !errors.As(err, &te) || te.Stalled || te.Superstep != 1 || (te.CheckpointPath == "") != (dir == "") {
			t.Fatalf("dir %q: want a run-deadline TimeoutError after superstep 1, a checkpoint with a directory; got %v", dir, err)
		}
		if dir != "" {
			resumes(t, g, 3, ccMin, te.CheckpointPath)
		}
	}
}

// TestResumeLatestFallback: engine-level auto-resume walks the checkpoint
// chain newest-first past damaged snapshots (torn writes, bit flips),
// counts each skip in the fallback metric, and completes bit-identically.
func TestResumeLatestFallback(t *testing.T) {
	g := rmat(8, 1)
	base, basePh, err := runRec(g, 3, ccMin())
	if err != nil {
		t.Fatal(err)
	}
	if base.Supersteps < 5 {
		t.Fatalf("test needs >= 5 supersteps, got %d", base.Supersteps)
	}
	latest := func(dir string, sink obs.Sink) (*core.Result, error) {
		cfg := ccMin()
		cfg.Obs = sink
		res, ph, err := runRec(g, 3, cfg, core.WithCheckpoint(&ckpt.Policy{Dir: dir}), core.WithResumeLatest())
		if err == nil && reflect.DeepEqual(base, res) {
			comparePhases(t, basePh, ph)
		} else if err == nil {
			t.Fatal("auto-resumed Result differs from uninterrupted run")
		}
		return res, err
	}
	killed := func(spec string) string {
		dir := t.TempDir()
		plan := mustPlan(t, spec)
		var ie *core.InterruptedError
		if _, _, err := runRec(g, 3, ccMin(), core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: plan.Hooks()})); !errors.As(err, &ie) {
			t.Fatalf("%s: want InterruptedError, got %v", spec, err)
		}
		return dir
	}

	// A torn write at boundary 2 leaves a truncated ckpt-2 under the final
	// name, reported as success; the kill at boundary 3 hands back ckpt-3,
	// which we then bit-flip — so auto-resume must skip BOTH newest
	// snapshots and land on ckpt-1.
	dir := killed("tornwrite@2;kill@3")
	newest := filepath.Join(dir, ckpt.FileName(3))
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(newest, fi.Size()/2, 2); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(nil)
	if _, err := latest(dir, m); err != nil {
		t.Fatalf("auto-resume: %v", err)
	}
	if got := m.Registry().Counter("graphxmt_ckpt_fallback_total", "").Value(); got != 2 {
		t.Fatalf("graphxmt_ckpt_fallback_total = %d, want 2 skipped snapshots", got)
	}

	// An empty directory is a fresh start, not an error.
	if _, err := latest(t.TempDir(), nil); err != nil {
		t.Fatalf("auto-resume with no checkpoints: %v", err)
	}

	// A directory holding only damaged snapshots is a hard error.
	dir = killed("kill@2")
	for step := int64(0); step <= 2; step++ {
		if err := faultinject.TruncateTail(filepath.Join(dir, ckpt.FileName(step)), 30); err != nil {
			t.Fatal(err)
		}
	}
	var nv *ckpt.NoValidCheckpointError
	if _, err := latest(dir, nil); !errors.As(err, &nv) || nv.Skipped != 3 {
		t.Fatalf("exhausted chain: got %v; want NoValidCheckpointError with 3 skips", err)
	}

	// WithResumeLatest without a checkpoint directory is a usage error.
	if _, _, err := runRec(g, 3, ccMin(), core.WithResumeLatest()); err == nil {
		t.Fatal("WithResumeLatest without a policy directory accepted")
	}
}
