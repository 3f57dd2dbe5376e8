package core_test

// The engine's arena (arena.go) is lent from run to run: nothing one run
// leaves in it may reach the next.

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

// sameOutcome reports how b departs from a, which a fresh arena gave: the
// answer, every superstep's counters and delivery, and the charged profile.
// Only the scratch footprint, the arena capacity the run holds, may differ.
func sameOutcome(t *testing.T, a, b outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.val, b.val) {
		t.Fatalf("answer %v, with a fresh arena %v", b.val, a.val)
	}
	noScratch := func(st obs.StepStats) obs.StepStats { st.ScratchBytes = 0; return st }
	if !slices.EqualFunc(a.steps, b.steps, func(x, y obs.StepStats) bool { return noScratch(x) == noScratch(y) }) {
		t.Fatalf("superstep counters %+v, with a fresh arena %+v", b.steps, a.steps)
	}
	comparePhases(t, a.phases, b.phases)
}

// TestArenaPoisoned: every row of the engine matrix, on two graphs of
// different n and MaxDegree, at one worker and three, under the full scan
// and sparse activation. Each run inherits the arena of a run of another
// row — another combiner, or none — on the other graph or the same one, and
// every buffer of it is poisoned (PoisonArena), or, last, left as that run
// left it. Its Result, counters and profile must be a fresh arena's.
func TestArenaPoisoned(t *testing.T) {
	var graphs []*graph.Graph
	for _, cfg := range []gen.RMATConfig{{Scale: 7, EdgeFactor: 8, Seed: 3}, {Scale: 9, EdgeFactor: 3, Seed: 5}} {
		edges, n, err := gen.RMATEdges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, newMGraph("", n, edges).flat)
	}
	if graphs[0].MaxDegree() == graphs[1].MaxDegree() {
		t.Fatal("the two graphs share their MaxDegree")
	}
	rows := matrixRows()
	inherited := 0
	for _, w := range []int{1, 3} {
		for _, sparse := range []bool{false, true} {
			sched := func(c *core.Config) { c.SparseActivation = sparse }
			fresh := map[[2]int]outcome{}
			for ri, r := range rows {
				for gi, g := range graphs {
					core.DropArena()
					o, err := exec(r, g, w, nil, sched)
					if err != nil {
						t.Fatalf("%s on graph %d, w=%d, sparse=%v: %v", r.name, gi, w, sparse, err)
					}
					fresh[[2]int{ri, gi}] = o
				}
			}
			// Row by row, switching graph every run; then all on the first;
			// then switching graph again, unpoisoned: what a run leaves
			// must be as harmless as poison.
			for pass := range 4 {
				for ri, r := range rows {
					gi := (ri + pass) % 2
					if pass == 2 {
						gi = 0
					}
					if pass < 3 && core.PoisonArena() {
						inherited++
					}
					o, err := exec(r, graphs[gi], w, nil, sched)
					if err != nil {
						t.Fatalf("%s on graph %d, w=%d, sparse=%v, poisoned arena: %v", r.name, gi, w, sparse, err)
					}
					t.Run(r.name, func(t *testing.T) { sameOutcome(t, fresh[[2]int{ri, gi}], o) })
				}
			}
		}
	}
	if inherited == 0 {
		t.Fatal("no run inherited an arena")
	}
}

// TestArenaAfterClose: runs on an mmap'd CSR2 graph, then Close, then runs
// on other graphs. The arena the first runs put back holds nothing of the
// unmapped file, so the later runs do not fault, and give what a fresh
// arena gives.
func TestArenaAfterClose(t *testing.T) {
	edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr2")
	if err := graphio.WriteCSR2File(path, graph.MustBuild(n, edges, graph.BuildOptions{})); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := graphio.OpenCSR2(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(g *graph.Graph) []any {
		bfs, err1 := bspalg.BFS(g, g.MaxDegreeVertex(), nil)
		cc, err2 := bspalg.ConnectedComponents(g, nil)
		pr, err3 := bspalg.PageRank(g, 5, nil, core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir()}))
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return []any{bfs.Dist, cc.Labels, pr.Rank}
	}
	runs(mapped)
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	other := mustGraph(gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 4}))
	for _, g := range []*graph.Graph{other, core.MustCompress(other)} {
		got := runs(g)
		core.DropArena()
		if want := runs(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s graph: after a run on a closed mapping the answers differ from a fresh arena's", g.Rep())
		}
	}
}

// aggProbe folds every vertex's ID into the aggregator "x" under reduce.
type aggProbe struct{ reduce func(a, b int64) int64 }

func (aggProbe) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p aggProbe) Compute(v *core.VertexContext) {
	v.Aggregate("x", v.ID(), p.reduce)
	v.VoteToHalt()
}

// TestArenaAggregatorsPerRun: two programs fold an aggregator of the same
// name under different reductions, one run after the other. The second run's
// chunks must fold under its own reduction, not the one the first run
// registered in the chunk states the arena kept.
func TestArenaAggregatorsPerRun(t *testing.T) {
	g := gen.Path(5000)
	for _, w := range []int{1, 3} {
		defer par.SetWorkers(par.SetWorkers(w))
		if _, err := core.Run(core.Config{Graph: g, Program: aggProbe{func(a, b int64) int64 { return max(a, b) }}}); err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(core.Config{Graph: g, Program: aggProbe{core.Sum}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Aggregates["x"], int64(5000*4999/2); got != want {
			t.Fatalf("w=%d: the sum of the IDs is %d, want %d", w, got, want)
		}
	}
}
