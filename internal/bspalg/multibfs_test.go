package bspalg

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

func multiTestGraph(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// multiTestSources builds a deterministic ~48-query source list with
// duplicates, spread across the vertex range.
func multiTestSources(n int64) []int64 {
	var src []int64
	for i := int64(0); i < 40; i++ {
		src = append(src, (i*n)/40)
	}
	// Duplicates: resubmit every fifth source.
	for i := 0; i < len(src); i += 5 {
		src = append(src, src[i])
	}
	return src
}

// TestMultiBFSEquivalenceMatrix is the tentpole correctness assertion:
// every lane of a batched run unpacks to distances bit-identical to an
// independent single-source BFS, across worker counts and graph
// representations. (The per-edge broadcast treatment and the forced
// directions are core's to set: the bfs-batch and reach rows of core's
// TestEngineMatrix.)
func TestMultiBFSEquivalenceMatrix(t *testing.T) {
	flat := multiTestGraph(t, 11)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := batch.NewPlan(multiTestSources(flat.NumVertices()), flat.NumVertices())
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: one single-source BFS per lane.
	base := make([][]int64, plan.Occupancy())
	for lane, s := range plan.Sources {
		res, err := BFS(flat, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		base[lane] = res.Dist
	}

	reps := []struct {
		name string
		g    *graph.Graph
	}{{"flat", flat}, {"compressed", comp}}
	for _, w := range []int{1, 3, 8} {
		for _, rep := range reps {
			t.Run(fmt.Sprintf("w=%d/%s", w, rep.name), func(t *testing.T) {
				defer par.SetWorkers(par.SetWorkers(w))
				mr, err := MultiBFS(rep.g, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				for lane := range plan.Sources {
					if got := mr.Dist(lane); !reflect.DeepEqual(got, base[lane]) {
						for v := range got {
							if got[v] != base[lane][v] {
								t.Fatalf("lane %d (source %d): dist[%d] = %d, want %d",
									lane, plan.Sources[lane], v, got[v], base[lane][v])
							}
						}
					}
				}
			})
		}
	}
}

// TestMultiReachMatchesCC: reachability lanes agree with the reference
// connected components — lane i reaches exactly its source's component.
func TestMultiReachMatchesCC(t *testing.T) {
	g := multiTestGraph(t, 10)
	n := g.NumVertices()
	sources := []int64{0, n / 7, n / 3, n / 2, 2 * n / 3, n - 1}
	plan, err := batch.NewPlan(sources, n)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := runMulti(g, plan, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Dist(0) != nil {
		t.Fatal("reachability batch should carry no levels")
	}
	labels := graph.ReferenceComponents(g)
	for lane, s := range plan.Sources {
		for v := int64(0); v < n; v++ {
			if want := labels[v] == labels[s]; (mr.Masks[v]>>lane&1 == 1) != want {
				t.Fatalf("lane %d (source %d): reached[%d] = %v, want %v", lane, s, v, !want, want)
			}
		}
	}
}

// laneSink captures RunStart info and per-step lane counts.
type laneSink struct {
	info  obs.RunInfo
	lanes []int64
}

func (s *laneSink) RunStart(i obs.RunInfo) { s.info = i }
func (s *laneSink) Span(obs.Span)          {}
func (s *laneSink) Step(st obs.StepStats)  { s.lanes = append(s.lanes, st.Lanes) }
func (s *laneSink) Mem(obs.MemSample)      {}
func (s *laneSink) RunEnd(time.Duration)   {}

// TestMultiBFSObsLanes: the obs layer reports lane occupancy at RunStart
// and a per-superstep active-lane count within it. (That the count is a
// pure function of the logical traffic, identical under the per-edge
// broadcast treatment, is core's TestEngineMatrix: bfs-batch and reach.)
func TestMultiBFSObsLanes(t *testing.T) {
	g := multiTestGraph(t, 10)
	plan, err := batch.NewPlan(multiTestSources(g.NumVertices()), g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	rec := &laneSink{}
	if _, err := MultiBFS(g, plan, nil, func(c *core.Config) { c.Obs = rec }); err != nil {
		t.Fatal(err)
	}
	if rec.info.Lanes != plan.Occupancy() {
		t.Fatalf("RunInfo.Lanes = %d, want occupancy %d", rec.info.Lanes, plan.Occupancy())
	}
	if len(rec.lanes) == 0 || rec.lanes[0] == 0 {
		t.Fatalf("superstep 0 reported %v active lanes, want > 0", rec.lanes)
	}
	for i, l := range rec.lanes {
		if l < 0 || l > int64(plan.Occupancy()) {
			t.Fatalf("step %d: %d active lanes out of range [0,%d]", i, l, plan.Occupancy())
		}
	}
}

// multiRecDist collects every lane's distances for equality checks.
func multiRecDist(mr *MultiResult) [][]int64 {
	out := make([][]int64, mr.Plan.Occupancy())
	for lane := range out {
		out[lane] = mr.Dist(lane)
	}
	return out
}

// TestMultiBFSRecoveryMatrix is the satellite's kill-at-every-boundary
// test for a full 64-source batch: a batched run killed at any superstep
// boundary and resumed — lane assignment pinned in the fingerprint, packed
// levels restored from the snapshot's aux words — finishes with distances
// and superstep counts bit-identical to the uninterrupted run.
func TestMultiBFSRecoveryMatrix(t *testing.T) {
	g := multiTestGraph(t, 12)
	n := g.NumVertices()
	sources := make([]int64, batch.MaxLanes)
	for i := range sources {
		sources[i] = (int64(i) * n) / batch.MaxLanes
	}
	plan, err := batch.NewPlan(sources, n)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Occupancy() != batch.MaxLanes {
		t.Fatalf("occupancy = %d, want %d", plan.Occupancy(), batch.MaxLanes)
	}

	for _, w := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			defer par.SetWorkers(par.SetWorkers(w))
			base, err := MultiBFS(g, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseDist := multiRecDist(base)
			for k := 0; k <= base.Supersteps-2; k++ {
				dir := t.TempDir()
				fp := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
				_, err := MultiBFS(g, plan, nil,
					core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: fp.Hooks()}))
				var ie *core.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
				}
				if ie.Superstep != k || ie.CheckpointPath == "" {
					t.Fatalf("kill@%d: InterruptedError = %+v", k, ie)
				}
				res, err := MultiBFS(g, plan, nil,
					core.WithResume(ie.CheckpointPath))
				if err != nil {
					t.Fatalf("resume from kill@%d: %v", k, err)
				}
				if res.Supersteps != base.Supersteps {
					t.Fatalf("kill@%d: resumed %d supersteps, want %d", k, res.Supersteps, base.Supersteps)
				}
				if !reflect.DeepEqual(multiRecDist(res), baseDist) {
					t.Fatalf("kill@%d: resumed distances differ from uninterrupted run", k)
				}
				if !reflect.DeepEqual(res.MessagesPerStep, base.MessagesPerStep) {
					t.Fatalf("kill@%d: resumed message counts differ", k)
				}
			}
		})
	}
}

// TestMultiBFSResumeRejectsLaneMismatch: a checkpoint taken under one lane
// assignment refuses to resume under a permuted one — the typed error
// names the "program" fingerprint field, whose identity carries the lane
// order.
func TestMultiBFSResumeRejectsLaneMismatch(t *testing.T) {
	g := multiTestGraph(t, 10)
	planA, err := batch.NewPlan([]int64{5, 9, 17}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	planB, err := batch.NewPlan([]int64{5, 17, 9}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fp := &faultinject.Plan{KillAt: map[int64]bool{1: true}}
	_, err = MultiBFS(g, planA, nil,
		core.WithCheckpoint(&ckpt.Policy{Dir: dir, Hooks: fp.Hooks()}))
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	_, err = MultiBFS(g, planB, nil,
		core.WithResume(ie.CheckpointPath))
	var me *ckpt.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("permuted lanes: want MismatchError, got %v", err)
	}
	if me.Field != "program" || me.Got != "multibfs lanes=5,9,17" || me.Want != "multibfs lanes=5,17,9" {
		t.Fatalf("mismatch = %+v, want the program's lane orders 5,9,17 vs 5,17,9", me)
	}
}

// TestMultiBFSRetryTransient: a transient vertex panic mid-batch is
// absorbed by deterministic retry — the rolled-back attempt's recorded
// levels are discarded with the rest of the boundary state, and the
// surviving run is bit-identical to a fault-free one.
func TestMultiBFSRetryTransient(t *testing.T) {
	g := multiTestGraph(t, 10)
	plan, err := batch.NewPlan(multiTestSources(g.NumVertices()), g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	base, err := MultiBFS(g, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var target int64 = -1
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			target = v
			break
		}
	}
	fp, err := faultinject.ParsePlan(fmt.Sprintf("panicn@2:%d:1", target))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultiBFS(g, plan, nil,
		core.WithRetries(2),
		func(c *core.Config) { c.Program = fp.WrapProgram(c.Program) })
	if err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if res.Supersteps != base.Supersteps || !reflect.DeepEqual(multiRecDist(res), multiRecDist(base)) {
		t.Fatal("retried batch differs from fault-free run")
	}
}

// TestMultiBFSLevelRange: a batch whose deepest lane is laneLevelMax hops
// from its source finishes with that level recorded; one hop more is a
// LevelRangeError, while the reachability batch, which records no level,
// finishes.
func TestMultiBFSLevelRange(t *testing.T) {
	for _, n := range []int64{laneLevelMax + 1, laneLevelMax + 2} {
		g := gen.Path(n)
		plan, err := batch.NewPlan([]int64{0, n / 2}, n)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := MultiBFS(g, plan, nil)
		var le *LevelRangeError
		switch {
		case n-1 <= laneLevelMax && err != nil:
			t.Fatalf("eccentricity %d: %v", n-1, err)
		case n-1 <= laneLevelMax && mr.Dist(0)[n-1] != n-1:
			t.Fatalf("eccentricity %d: level %d", n-1, mr.Dist(0)[n-1])
		case n-1 > laneLevelMax && (!errors.As(err, &le) || le.MaxLevel != laneLevelMax):
			t.Fatalf("eccentricity %d: want a LevelRangeError at %d, got %v", n-1, laneLevelMax, err)
		}
		if _, err := runMulti(g, plan, nil, false, nil); err != nil {
			t.Fatalf("reach, eccentricity %d: %v", n-1, err)
		}
	}
}
