package core_test

// Direction-optimizing supersteps, asserted end to end: the push/pull
// decision sequence is a pure function of logical counters, so an
// auto-direction run is bit-identical to the forced-push engine (Result
// minus the decision record, plus the full trace profile) at any worker
// count and under either broadcast treatment; the sequence itself is
// identical across worker counts; and checkpoint/resume replays it exactly,
// including across a push→pull switch. See direction.go and docs/MODEL.md.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/batch"
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

// sansDirections returns a copy of res with the decision record dropped,
// for comparing an auto run against its forced-push control (whose record
// legitimately differs — that is the point of the A/B).
func sansDirections(res *core.Result) *core.Result {
	c := *res
	c.DirectionPerStep = nil
	return &c
}

func hasDir(res *core.Result, want core.DirectionMode) bool {
	return slices.Contains(res.DirectionPerStep, want)
}

// orderProbe is the order-sensitive program: a vertex's state
// is a rolling hash of Messages() in the order the engine yields them, so a
// gather that produced the right multiset in the wrong order — or folded
// it — changes every downstream state. About three quarters of the vertices
// broadcast in each of the first rounds supersteps: frontiers dense enough
// to pull, yet far from all-stamped.
type orderProbe struct{ rounds int }

func (orderProbe) InitialState(_ *graph.Graph, v int64) int64 { return v*0x9E3779B9 + 1 }

func (p orderProbe) Compute(v *core.VertexContext) {
	h := v.State()
	for _, m := range v.Messages() {
		h = h*1099511628211 + m
	}
	v.SetState(h)
	if v.Superstep() < p.rounds && uint64(h)>>11%4 != 0 {
		v.SendToNeighbors(h)
	}
	v.VoteToHalt()
}

// dirRun is what one cell of the direction matrix compares: the run's
// outcome without the decision record (which legitimately differs between
// modes — that is the point of the A/B), the record, and the trace profile.
type dirRun struct {
	res    any
	dirs   []core.DirectionMode
	phases []*trace.Phase
}

// cfgRun adapts a Config-shaped kernel to the matrix.
func cfgRun(mk func(g *graph.Graph) core.Config) func(*testing.T, *graph.Graph, int, core.DirectionMode) dirRun {
	return func(t *testing.T, g *graph.Graph, w int, d core.DirectionMode) dirRun {
		res, ph := runDet(t, g, w, func() core.Config {
			cfg := mk(g)
			core.ForceDirection(d)(&cfg)
			return cfg
		})
		return dirRun{sansDirections(res), res.DirectionPerStep, ph}
	}
}

// multiBFSRun is the core.Or kernel: a 48-lane batched BFS through its
// bspalg wrapper, the decision record read back from the sink.
func multiBFSRun(t *testing.T, g *graph.Graph, w int, d core.DirectionMode) dirRun {
	defer par.SetWorkers(par.SetWorkers(w))
	n := g.NumVertices()
	src := make([]int64, 48)
	for i := range src {
		src[i] = int64(i) * n / 48
	}
	plan, err := batch.NewPlan(src, n)
	if err != nil {
		t.Fatal(err)
	}
	rec, capt := trace.NewRecorder(), &stepCapture{}
	mr, err := bspalg.MultiBFS(g, plan, rec, core.ForceDirection(d), func(c *core.Config) { c.Obs = capt })
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]core.DirectionMode, len(capt.steps))
	for i, st := range capt.steps {
		dirs[i] = map[string]core.DirectionMode{"push": core.DirPush, "pull": core.DirPull}[st.Direction]
	}
	return dirRun{mr, dirs, rec.Phases()}
}

// TestDirectionDeterminismMatrix: for each kernel, the auto run and the
// forced-pull run equal the forced-push run in every output except the
// decision record — Result and trace profile — at 1, 3, and 8 workers, on
// the flat graph and on its compressed twin; each mode's decision record is
// itself identical in every cell; and where the frontier gets dense the
// heuristic actually fires, so the equality is not vacuously about an
// all-push sequence. The rows cover every way a pull superstep hands a
// vertex its messages (chunkState.gather): in adjacency order with no
// combiner (orderProbe pins the order, not just the multiset), folded by
// each built-in combiner and by a closure that takes the generic path,
// under sparse activation, and on the graph shapes that stress the gather
// buffers and the delivered count.
func TestDirectionDeterminismMatrix(t *testing.T) {
	shared := detGraph(t)
	edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cliques := gen.CliqueChain(40, 30)
	probeWith := func(combine func(a, b int64) int64) func(*testing.T, *graph.Graph, int, core.DirectionMode) dirRun {
		return cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, Combiner: combine}
		})
	}
	probe := probeWith(nil)
	pagerank := cfgRun(func(*graph.Graph) core.Config {
		return core.Config{Program: bspalg.PageRankProgram{DampingMilli: 850, Rounds: 6}, Combiner: core.Sum}
	})
	cases := []struct {
		name string
		// g replaces the shared scale-free graph.
		g *graph.Graph
		// wantPull asserts the auto and forced-pull runs pulled at least once.
		wantPull bool
		run      func(*testing.T, *graph.Graph, int, core.DirectionMode) dirRun
	}{
		{name: "bfs", wantPull: true, run: cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}}
		})},
		{name: "cc", wantPull: true, run: cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.CCProgram{}}
		})},
		{name: "cc/combiner", wantPull: true, run: cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		})},
		{name: "lp", run: cfgRun(func(g *graph.Graph) core.Config {
			return core.Config{Program: bspalg.NewLPProgram(g, 20), MaxSupersteps: 22}
		})},
		{name: "probe", wantPull: true, run: probe},
		{name: "probe/sparse", wantPull: true, run: cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, SparseActivation: true}
		})},
		{name: "cc/combiner/sparse", wantPull: true, run: cfgRun(func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: true}
		})},
		{name: "msbfs/or", wantPull: true, run: multiBFSRun},
		{name: "pagerank/sum", wantPull: true, run: pagerank},
		// The kernels above forgive a fold that lets an unstamped neighbor
		// in (a stale BFS bit or label changes nothing; PageRank stamps
		// everyone); the probe's partial frontiers and hashed state do not.
		{name: "probe/or", wantPull: true, run: probeWith(core.Or)},
		{name: "probe/sum", wantPull: true, run: probeWith(core.Sum)},
		{name: "probe/min", wantPull: true, run: probeWith(core.Min)},
		{name: "probe/closure", wantPull: true, run: probeWith(func(a, b int64) int64 { return max(a, b) })},
		// A hub whose degree dwarfs every other list in its chunk.
		{name: "probe/star", g: gen.Star(40001), wantPull: true, run: probe},
		// Trailing vertices no edge touches.
		{name: "probe/isolated", g: graph.MustBuild(n+64, edges, graph.BuildOptions{}), wantPull: true, run: probe},
		// Dense, overlapping lists of equal length: every gather reads a
		// full clique.
		{name: "probe/cliques", g: cliques, wantPull: true, run: probe},
		{name: "pagerank/cliques", g: cliques, wantPull: true, run: pagerank},
		{name: "probe/n=1", g: graph.MustBuild(1, nil, graph.BuildOptions{}), run: probe},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat := tc.g
			if flat == nil {
				flat = shared
			}
			modes := []core.DirectionMode{core.DirPush, core.DirAuto, core.DirPull}
			base := tc.run(t, flat, 1, core.DirPush)
			record := map[core.DirectionMode][]core.DirectionMode{core.DirPush: base.dirs}
			if slices.Contains(base.dirs, core.DirPull) {
				t.Fatalf("forced-push run recorded a pull: %v", base.dirs)
			}
			for _, rep := range []*graph.Graph{flat, core.MustCompress(flat)} {
				for _, w := range []int{1, 3, 8} {
					for _, d := range modes {
						cell := fmt.Sprintf("%s w=%d %s", rep.Rep(), w, d)
						r := tc.run(t, rep, w, d)
						if !reflect.DeepEqual(base.res, r.res) {
							t.Fatalf("%s: Result differs from the flat 1-worker forced-push run", cell)
						}
						comparePhases(t, base.phases, r.phases)
						want, seen := record[d]
						if !seen {
							record[d] = r.dirs
							if tc.wantPull && !slices.Contains(r.dirs, core.DirPull) {
								t.Fatalf("%s: never pulled: %v", cell, r.dirs)
							}
						} else if !reflect.DeepEqual(want, r.dirs) {
							t.Fatalf("%s: decision record %v, first %s cell had %v", cell, r.dirs, d, want)
						}
					}
				}
			}
		})
	}
}

// TestPushPullEquivalence runs every row of the kernel table that has a BSP
// runner — at 1 and 3 workers, on the flat graph and its compressed twin —
// once on the engine's own decisions and once forced to push and to pull
// (core.ForceDirection), and requires the same Out and charged profile from
// all of them. On the engine-decided runs a superstep whose boundary pulled
// must have recorded the pull decision: there is one place a direction is
// chosen, for every program.
func TestPushPullEquivalence(t *testing.T) {
	flat := detGraph(t)
	edges := flat.EdgeList()
	weighted, err := graph.Build(flat.NumVertices(), edges, graph.BuildOptions{Weights: gen.UniformWeights(len(edges), 10, 3)})
	if err != nil {
		t.Fatal(err)
	}
	n := flat.NumVertices()
	plan, err := batch.NewPlan([]int64{flat.MaxDegreeVertex(), 0, n / 2, n - 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		k    *bspalg.Kernel
		p    bspalg.Params
	}
	var rows []row
	for _, name := range strings.Split(bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil }), ", ") {
		k := bspalg.Lookup(name)
		p := bspalg.Params{Source: flat.MaxDegreeVertex(), Rounds: 7, Seed: 3, Samples: 4}
		if k.Reads&bspalg.Sources == 0 || k.Reads&bspalg.Source != 0 {
			rows = append(rows, row{name, k, p})
		}
		if k.Reads&bspalg.Sources != 0 {
			p.Plan, p.Batch = plan, true
			rows = append(rows, row{name + "/batch", k, p})
		}
	}
	pulled := map[string]bool{}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			g := flat
			if r.k.Reads&bspalg.Weights != 0 {
				g = weighted
			}
			run := func(rep *graph.Graph, w int, d core.DirectionMode) (bspalg.Out, []*trace.Phase, []obs.StepStats) {
				t.Helper()
				rec, capt := trace.NewRecorder(), &stepCapture{}
				defer par.SetWorkers(par.SetWorkers(w))
				out, err := r.k.BSP(rep, r.p, rec, core.ForceDirection(d), func(c *core.Config) { c.Obs = capt })
				if err != nil {
					t.Fatalf("%s w=%d %s: %v", rep.Rep(), w, d, err)
				}
				return out, rec.Phases(), capt.steps
			}
			base, basePh, _ := run(g, 1, core.DirPush)
			for _, rep := range []*graph.Graph{g, core.MustCompress(g)} {
				t.Run(string(rep.Rep()), func(t *testing.T) {
					for _, w := range []int{1, 3} {
						for _, d := range []core.DirectionMode{core.DirPush, core.DirAuto, core.DirPull} {
							out, ph, steps := run(rep, w, d)
							if !reflect.DeepEqual(base, out) {
								t.Fatalf("w=%d %s: Out differs from the flat 1-worker forced-push run", w, d)
							}
							comparePhases(t, basePh, ph)
							if d != core.DirAuto {
								continue
							}
							for _, st := range steps {
								if strings.HasPrefix(st.Delivery, "pull") {
									pulled[r.name] = true
									if st.Direction != "pull" {
										t.Fatalf("w=%d: step %d delivered by %q under direction %q", w, st.Step, st.Delivery, st.Direction)
									}
								}
							}
						}
					}
				})
			}
		})
	}
	// The rows whose dense supersteps the engine pulls, combining (pagerank)
	// or not: the equality above is not vacuously about all-push runs.
	for _, name := range []string{"bfs", "cc", "kcore", "pagerank"} {
		if !pulled[name] {
			t.Errorf("%s: no engine-decided run pulled", name)
		}
	}
}

// TestDirectionTreatmentIndependent: the decision sequence (and the whole
// Result) is identical whether broadcasts are kept as records or eagerly
// expanded — expansion removes the physical pull path, but the decision is
// a function of logical counters only, so the record stays the same.
func TestDirectionTreatmentIndependent(t *testing.T) {
	g := detGraph(t)
	run := func(expand bool) *core.Result {
		res, _ := runDet(t, g, 3, func() core.Config {
			cfg := core.Config{Program: bspalg.CCProgram{}}
			core.WithExpandBroadcasts(expand)(&cfg)
			return cfg
		})
		return res
	}
	rec, exp := run(false), run(true)
	if !hasDir(rec, core.DirPull) {
		t.Fatalf("record-path run never pulled: %v", rec.DirectionPerStep)
	}
	if !reflect.DeepEqual(rec, exp) {
		t.Fatalf("Result differs between treatments\n  record:   %v\n  expanded: %v",
			rec.DirectionPerStep, exp.DirectionPerStep)
	}
}

// TestDirectionPullReducesPhysical: on pull-decided supersteps the
// physically materialized traffic collapses to the broadcast records while
// the logical per-edge count — the paper-fidelity quantity the cost model
// charges — is identical to the forced-push control's, step by step.
func TestDirectionPullReducesPhysical(t *testing.T) {
	g := detGraph(t)
	run := func(d core.DirectionMode) []obsStep {
		sink := &stepCapture{}
		cfg := core.Config{Graph: g, Program: bspalg.CCProgram{}, Obs: sink}
		core.ForceDirection(d)(&cfg)
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		out := make([]obsStep, len(sink.steps))
		for i, st := range sink.steps {
			out[i] = obsStep{dir: st.Direction, sent: st.Sent, phys: st.SentPhysical,
				frontier: st.FrontierEdges, unvisited: st.UnvisitedEdges}
		}
		return out
	}
	auto, push := run(core.DirAuto), run(core.DirPush)
	if len(auto) != len(push) {
		t.Fatalf("superstep counts differ: %d vs %d", len(auto), len(push))
	}
	sawPull := false
	for i := range auto {
		if auto[i].sent != push[i].sent {
			t.Fatalf("step %d: logical Sent differs: auto %d vs push %d", i, auto[i].sent, push[i].sent)
		}
		if auto[i].frontier != push[i].frontier || auto[i].unvisited != push[i].unvisited {
			t.Fatalf("step %d: logical edge counters differ between modes: (%d,%d) vs (%d,%d)",
				i, auto[i].frontier, auto[i].unvisited, push[i].frontier, push[i].unvisited)
		}
		if auto[i].dir == "pull" {
			sawPull = true
			if auto[i].phys >= auto[i].sent {
				t.Fatalf("step %d: pull superstep SentPhysical %d not below logical Sent %d",
					i, auto[i].phys, auto[i].sent)
			}
		}
	}
	if !sawPull {
		t.Fatal("no superstep pulled; physical reduction never exercised")
	}
}

type obsStep struct {
	dir                 string
	sent, phys          int64
	frontier, unvisited int64
}

// TestDirectionRecoveryAcrossSwitch kills an auto BFS at every superstep
// boundary — the base run must contain both push and pull supersteps, so
// some kill point sits exactly on the push→pull switch — and asserts the
// resumed Result (decision record included) and profile are bit-identical
// to the uninterrupted run's.
func TestDirectionRecoveryAcrossSwitch(t *testing.T) {
	g := detGraph(t)
	mk := func() core.Config {
		return core.Config{Program: bspalg.BFSProgram{Source: 0}}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !hasDir(base, core.DirPush) || !hasDir(base, core.DirPull) {
		t.Fatalf("base run must mix directions to cover the switch, got %v", base.DirectionPerStep)
	}
	for k := 0; k <= base.Supersteps-2; k++ {
		dir := t.TempDir()
		plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
		cfg := mk()
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
			t.Fatalf("kill@%d: resumed Result differs\n  directions %v vs %v",
				k, base.DirectionPerStep, res.DirectionPerStep)
		}
		comparePhases(t, basePh, ph)
	}
}

// TestDirectionSinkMatchesResult: the sink-visible decision stream is the
// Result's, step by step — on a real auto-mode run that pulls, every
// StepStats.Direction equals Result.DirectionPerStep[i].String(), and the
// JSONL export of the same run carries identical direction/frontier_edges/
// unvisited_edges per step, so offline tooling and the returned value can
// never disagree about what the engine decided.
func TestDirectionSinkMatchesResult(t *testing.T) {
	g := detGraph(t)
	capt := &stepCapture{}
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	res, err := core.Run(core.Config{
		Graph:   g,
		Program: bspalg.CCProgram{},
		Obs:     obs.Tee(capt, jl),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if !hasDir(res, core.DirPull) {
		t.Fatalf("auto run never pulled: %v", res.DirectionPerStep)
	}
	if len(capt.steps) != len(res.DirectionPerStep) || len(capt.steps) != res.Supersteps {
		t.Fatalf("sink saw %d steps, Result has %d directions over %d supersteps",
			len(capt.steps), len(res.DirectionPerStep), res.Supersteps)
	}
	type dirStep struct {
		Direction string `json:"direction"`
		Frontier  int64  `json:"frontier_edges"`
		Unvisited int64  `json:"unvisited_edges"`
	}
	var fromJSONL []dirStep
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Ev string `json:"ev"`
			dirStep
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
		if ev.Ev == "step" {
			fromJSONL = append(fromJSONL, ev.dirStep)
		}
	}
	if len(fromJSONL) != len(capt.steps) {
		t.Fatalf("jsonl has %d step events, sink saw %d", len(fromJSONL), len(capt.steps))
	}
	for i, st := range capt.steps {
		if st.Step != i {
			t.Fatalf("step event %d carries index %d", i, st.Step)
		}
		if want := res.DirectionPerStep[i].String(); st.Direction != want {
			t.Fatalf("step %d: sink direction %q, Result %q", i, st.Direction, want)
		}
		if j := fromJSONL[i]; j.Direction != st.Direction || j.Frontier != st.FrontierEdges || j.Unvisited != st.UnvisitedEdges {
			t.Fatalf("step %d: jsonl (%s,%d,%d) != sink (%s,%d,%d)",
				i, j.Direction, j.Frontier, j.Unvisited, st.Direction, st.FrontierEdges, st.UnvisitedEdges)
		}
	}
}

// TestDirectionStepStats: the report/JSONL counters surface the decision
// and both logical edge counters on every superstep of a direction-active
// run.
func TestDirectionStepStats(t *testing.T) {
	g := detGraph(t)
	sink := &stepCapture{}
	if _, err := core.Run(core.Config{Graph: g, Program: bspalg.BFSProgram{Source: 0}, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if len(sink.steps) == 0 {
		t.Fatal("no step stats emitted")
	}
	total := int64(len(g.Adjacency()))
	for i, st := range sink.steps {
		if st.Direction != "push" && st.Direction != "pull" {
			t.Fatalf("step %d: Direction = %q, want push or pull", i, st.Direction)
		}
		if st.UnvisitedEdges < 0 || st.UnvisitedEdges > total {
			t.Fatalf("step %d: UnvisitedEdges %d outside [0,%d]", i, st.UnvisitedEdges, total)
		}
		if st.FrontierEdges != st.Sent {
			// BFS never unicasts, so the frontier's incident edges are
			// exactly the logical broadcast count.
			t.Fatalf("step %d: FrontierEdges %d != Sent %d", i, st.FrontierEdges, st.Sent)
		}
	}
}
