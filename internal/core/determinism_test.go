package core_test

// The host-parallelism invariant, asserted end to end: a BSP run's Result
// (states, per-step counters, aggregates) and its recorded trace profile
// are bit-identical whether par executes on 1 or N host workers. Simulated
// time is a pure function of the profile, so this is exactly the guarantee
// that host parallelism never leaks into the machine model.

import (
	"errors"
	"fmt"
	"io"
	"maps"
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
	"graphxmt/internal/obs/live"
	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// detGraph is shared by all determinism cases: large enough that the sweep
// splits into many chunks and dense supersteps cross the parallel-delivery
// threshold, small enough to stay fast under -race.
func detGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runDet executes cfg (with a fresh program from mk, since some programs
// carry per-run state) under w workers and returns result + profile. Every
// run carries the full observability stack — report sink, metrics
// registry, and a started live introspection server, teed together:
// attaching them must never change the Result or the recorded profile, so
// the determinism assertions double as the obs-is-passive guarantee. After
// the run, the metrics registry's logical counters are reconciled exactly
// against the Result.
func runDet(t *testing.T, g *graph.Graph, w int, mk func() core.Config) (*core.Result, []*trace.Phase) {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(w))
	rec := trace.NewRecorder()
	cfg := mk()
	cfg.Graph = g
	cfg.Recorder = rec
	m := obs.NewMetrics(nil)
	srv := live.NewServer(nil, 0)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg.Obs = obs.Tee(obs.NewReport(), m, srv.Sink())
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reconcileMetrics(t, m, res)
	return res, rec.Phases()
}

// reconcileMetrics asserts the metrics registry's counters agree exactly
// with the run's Result — the live view and the returned value are two
// reads of the same facts.
func reconcileMetrics(t *testing.T, m *obs.Metrics, res *core.Result) {
	t.Helper()
	reg := m.Registry()
	var wantSent, wantActive int64
	for _, s := range res.MessagesPerStep {
		wantSent += s
	}
	for _, a := range res.ActivePerStep {
		wantActive += a
	}
	if got := reg.Counter("graphxmt_messages_logical_total", "").Value(); got != wantSent {
		t.Fatalf("metrics logical messages = %d, Result sums to %d", got, wantSent)
	}
	if got := reg.Counter("graphxmt_active_vertices_total", "").Value(); got != wantActive {
		t.Fatalf("metrics active vertices = %d, Result sums to %d", got, wantActive)
	}
	if got := reg.Counter("graphxmt_supersteps_total", "").Value(); got != int64(res.Supersteps) {
		t.Fatalf("metrics supersteps = %d, Result has %d", got, res.Supersteps)
	}
}

func comparePhases(t *testing.T, want, got []*trace.Phase) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("phase count %d != %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Name != b.Name || a.Index != b.Index ||
			a.Tasks != b.Tasks || a.Issue != b.Issue ||
			a.Loads != b.Loads || a.Stores != b.Stores ||
			a.MaxTask != b.MaxTask || a.Hot != b.Hot ||
			a.Barriers != b.Barriers {
			t.Fatalf("phase %d (%s/%d) differs:\n  1 worker: %+v\n  N workers: %+v",
				i, a.Name, a.Index, a, b)
		}
	}
}

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	g := detGraph(t)
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
		{"cc/dense", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}}
		}},
		{"cc/combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"cc/sparse-combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: true}
		}},
		{"pagerank/combiner", func() core.Config {
			return core.Config{
				Program:  bspalg.PageRankProgram{DampingMilli: 850, Rounds: 15},
				Combiner: core.Sum,
			}
		}},
		{"triangles/aggregator", func() core.Config {
			return core.Config{
				Program:                 bspalg.TCProgram{},
				MaxMessagesPerSuperstep: 1 << 26,
			}
		}},
		{"kcore/sparse", func() core.Config {
			return core.Config{Program: bspalg.NewKCoreProgram(g), SparseActivation: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseRes, basePh := runDet(t, g, 1, tc.mk)
			for _, w := range []int{3, 8} {
				res, ph := runDet(t, g, w, tc.mk)
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: Result differs from 1-worker run\n  supersteps %d vs %d\n  active %v vs %v\n  msgs %v vs %v\n  aggregates %v vs %v",
						w, baseRes.Supersteps, res.Supersteps,
						baseRes.ActivePerStep, res.ActivePerStep,
						baseRes.MessagesPerStep, res.MessagesPerStep,
						baseRes.Aggregates, res.Aggregates)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestEngineMatchesReference pins the parallel engine's answers to
// independent references on the same graph, so determinism cannot hide a
// systematic error shared by every worker count.
func TestEngineMatchesReference(t *testing.T) {
	g := detGraph(t)
	defer par.SetWorkers(par.SetWorkers(8))

	bfs, err := bspalg.BFS(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: simple sequential BFS over the CSR graph.
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int64{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	for v := int64(0); v < n; v++ {
		if bfs.Dist[v] != dist[v] {
			t.Fatalf("bfs dist[%d] = %d, want %d", v, bfs.Dist[v], dist[v])
		}
	}

	cc, err := bspalg.ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// In a connected component the label is the minimum member; check
	// label consistency across every edge.
	for v := int64(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if cc.Labels[v] != cc.Labels[w] {
				t.Fatalf("cc labels differ across edge (%d,%d): %d vs %d",
					v, w, cc.Labels[v], cc.Labels[w])
			}
		}
	}
}

// TestBitmapWordEdges pins the per-vertex bitmaps — halted, visited, the
// inbox's receivers — where a word boundary falls: BFS from vertex 0 on a
// path, a star and a grid of n vertices, n either side of a multiple of 64,
// under the full scan and sparse activation. Each row checks that
//   - w=3, w=8, a run that retries every superstep once, and runs killed at
//     a boundary and resumed at another worker count give the w=1 Result
//     and profile;
//   - the vertices that run are those a plain BFS says receive, and a sparse
//     sweep scans no others: a receiver bit the next delivery failed to
//     retire would run or scan a vertex more;
//   - at every boundary the checkpointed halted set has exactly live clear
//     bits below n and, like visited, no bit set past it (on the 4097-vertex
//     path, whose 4096 boundaries would cost a file sync each, only where
//     it is killed).
//
// A full scan that dropped its [lo, hi) mask would run vertices past n and
// fail every row whose n is not a multiple of 64.
func TestBitmapWordEdges(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(n int64) *graph.Graph
	}{
		{"path", gen.Path},
		{"star", gen.Star},
		{"grid", func(n int64) *graph.Graph {
			rows := int64(1)
			for r := int64(2); r*r <= n; r++ {
				if n%r == 0 {
					rows = r
				}
			}
			return gen.Grid(rows, n/rows)
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int64{1, 63, 64, 65, 127, 129, 4097} {
			g := sh.mk(n)
			wantActive, firstRun := bfsReceivers(g)
			for _, sparse := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/sparse=%v", sh.name, n, sparse), func(t *testing.T) {
					cfg := func() core.Config {
						return core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: sparse, MaxSupersteps: -1}
					}
					base, basePh, err := runRec(g, 1, cfg())
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(base.ActivePerStep, wantActive) {
						t.Fatalf("ActivePerStep = %v, a plain BFS says %v", base.ActivePerStep, wantActive)
					}
					for _, p := range basePh {
						if p.Name != "bsp/scan" {
							continue
						}
						want := n
						if sparse && p.Index > 0 {
							want = wantActive[p.Index]
						}
						if p.Tasks != want {
							t.Fatalf("superstep %d scans %d vertices, want %d (%d run)", p.Index, p.Tasks, want, wantActive[p.Index])
						}
					}
					same := func(what string, res *core.Result, ph []*trace.Phase, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if !reflect.DeepEqual(base, res) {
							t.Fatalf("%s: Result differs from w=1's", what)
						}
						comparePhases(t, basePh, ph)
					}
					for _, w := range []int{3, 8} {
						res, ph, err := runRec(g, w, cfg())
						same(fmt.Sprintf("w=%d", w), res, ph, err)
					}

					// One transient panic in every superstep, at a vertex that runs.
					var spec []string
					for s, v := range firstRun {
						spec = append(spec, fmt.Sprintf("panicn@%d:%d:1", s, v))
					}
					plan, err := faultinject.ParsePlan(strings.Join(spec, ";"))
					if err != nil {
						t.Fatal(err)
					}
					c := cfg()
					c.Program, c.MaxRetries = plan.WrapProgram(c.Program), 1
					res, ph, err := runRec(g, 3, c)
					if err == nil {
						if want := slices.Repeat([]int64{1}, base.Supersteps); !slices.Equal(res.RetriesPerStep, want) {
							t.Fatalf("RetriesPerStep = %v, want one per superstep", res.RetriesPerStep)
						}
						res.RetriesPerStep = nil
					}
					same("retry every superstep", res, ph, err)

					if base.Supersteps <= 1<<10 {
						// Every boundary, checked as the checkpoint writer encodes it.
						tap := &haltedTap{t: t}
						c = cfg()
						c.Checkpoint = &ckpt.Policy{Dir: t.TempDir(), Keep: 1, Hooks: &ckpt.Hooks{WrapWrite: func(_ int64, w io.Writer) io.Writer {
							tap.writes = 0
							return io.MultiWriter(w, tap)
						}}}
						res, ph, err = runRec(g, 8, c)
						same("checkpointed", res, ph, err)
						if tap.boundaries != base.Supersteps-1 {
							t.Fatalf("checked %d boundaries, the run has %d", tap.boundaries, base.Supersteps-1)
						}
					}

					last := int64(base.Supersteps - 2) // the last boundary
					kills := []int64{0, 1, 63, 64, last / 2, last}
					slices.Sort(kills)
					for i, k := range slices.Compact(kills) {
						if k < 0 || k > last {
							continue
						}
						kw, rw := []int{1, 8, 3}[i%3], []int{8, 3, 1}[i%3]
						plan := &faultinject.Plan{KillAt: map[int64]bool{k: true}}
						c := cfg()
						c.Checkpoint = &ckpt.Policy{Dir: t.TempDir(), EveryN: 1 << 30, Hooks: plan.Hooks()}
						_, _, err := runRec(g, kw, c)
						var ie *core.InterruptedError
						if !errors.As(err, &ie) {
							t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
						}
						snap, err := ckpt.Load(ie.CheckpointPath)
						if err != nil {
							t.Fatal(err)
						}
						checkBitmaps(t, snap)
						c = cfg()
						c.Resume = ie.CheckpointPath
						res, ph, err := runRec(g, rw, c)
						same(fmt.Sprintf("kill@%d at w=%d, resumed at w=%d", k, kw, rw), res, ph, err)
					}
				})
			}
		}
	}
}

// bfsReceivers is what BFSProgram from vertex 0 runs, from a plain BFS:
// every vertex in superstep 0, then in each superstep the neighbors of the
// level found in the one before, for as long as that level has an edge to
// send along. first is the lowest vertex that runs in each superstep.
func bfsReceivers(g *graph.Graph) (active, first []int64) {
	n := g.NumVertices()
	seen := make([]bool, n)
	seen[0] = true
	active, first = []int64{n}, []int64{0}
	for level := []int64{0}; ; {
		recv := map[int64]bool{}
		var next []int64
		for _, v := range level {
			for _, w := range g.Neighbors(v) {
				recv[w] = true
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		if len(recv) == 0 {
			return active, first
		}
		active = append(active, int64(len(recv)))
		first = append(first, slices.Min(slices.Collect(maps.Keys(recv))))
		level = next
	}
}

// haltedTap reads each boundary's checkpoint payload as the writer encodes
// it — the second Write of a checkpoint file, after its header — and checks
// its bitmaps.
type haltedTap struct {
	t                  *testing.T
	writes, boundaries int
}

func (h *haltedTap) Write(b []byte) (int, error) {
	if h.writes++; h.writes != 2 {
		return len(b), nil
	}
	s, err := ckpt.Decode(b, "tap")
	if err != nil {
		h.t.Fatalf("boundary %d: %v", h.boundaries, err)
	}
	checkBitmaps(h.t, s)
	h.boundaries++
	return len(b), nil
}

// checkBitmaps: the boundary's halted set has live clear bits below n, and
// neither it nor visited has a bit set past n.
func checkBitmaps(t *testing.T, s *ckpt.Snapshot) {
	t.Helper()
	n := s.FP.Vertices
	var clear int64
	for v := int64(0); v < n; v++ {
		if !s.Halted.Has(v) {
			clear++
		}
	}
	if clear != s.Live {
		t.Fatalf("boundary %d: %d vertices below n=%d are not halted, live = %d", s.Step, clear, n, s.Live)
	}
	for _, bm := range []ckpt.Bitmap{s.Halted, s.Visited} {
		if k := len(bm.Words); k > 0 && n%64 != 0 && bm.Words[k-1]>>(n%64) != 0 {
			t.Fatalf("boundary %d: a bitmap has bits set past n=%d: %#x", s.Step, n, bm.Words[k-1])
		}
	}
}
