package core_test

// This file keeps docs/TUTORIAL.md honest: it implements the tutorial's
// kHopMin program verbatim and verifies it against brute force.

import (
	"slices"
	"testing"
	"testing/quick"

	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/machine"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

type kHopMin struct{ K int }

func (kHopMin) InitialState(_ *graph.Graph, v int64) int64 { return v }

func (p kHopMin) Compute(v *core.VertexContext) {
	best := v.State()
	changed := false
	for _, m := range v.Messages() {
		if m < best {
			best, changed = m, true
		}
	}
	if changed {
		v.SetState(best)
	}
	if v.Superstep() < p.K && (v.Superstep() == 0 || changed) {
		v.SendToNeighbors(best)
	}
	v.VoteToHalt()
}

// bruteKHopMin is the minimum ID within k hops of every vertex: the first
// vertex, in ID order, that a BFS from it reaches in k hops or fewer.
func bruteKHopMin(g *graph.Graph, k int) []int64 {
	out := make([]int64, g.NumVertices())
	for s := range out {
		d := graph.ReferenceBFS(g, int64(s))
		out[s] = int64(slices.IndexFunc(d, func(x int64) bool { return x >= 0 && x <= int64(k) }))
	}
	return out
}

// TestTutorialKHopMin checks kHopMin against brute force on a ring, where
// k supersteps of flooding plus the final all-quiet one are k+1, and on
// random graphs.
func TestTutorialKHopMin(t *testing.T) {
	// agrees runs kHopMin on g, and reports whether it gives brute force's
	// answer in steps supersteps (any number, if steps is 0).
	agrees := func(g *graph.Graph, k, steps int) bool {
		res, err := core.Run(core.Config{Graph: g, Program: kHopMin{K: k}, Combiner: core.Min})
		return err == nil && slices.Equal(res.States, bruteKHopMin(g, k)) && (steps == 0 || res.Supersteps == steps)
	}
	if !agrees(gen.Ring(12), 2, 3) {
		t.Fatal("kHopMin on a 12-ring disagrees with brute force, or did not take 3 supersteps")
	}
	f := func(seed uint64, nRaw, mRaw, kRaw uint8) bool {
		n := int64(nRaw%25) + 2
		r := rng.New(seed)
		edges := make([]graph.Edge, int(mRaw%80))
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{})
		return err == nil && agrees(g, int(kRaw%4)+1, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTutorialProfileEvaluates(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := core.Run(core.Config{Graph: rmat(10, 1), Program: kHopMin{K: 2}, Combiner: core.Min, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	model := machine.NewAnalytic(machine.DefaultConfig())
	t8 := machine.Seconds(model, rec.Phases(), 8)
	t128 := machine.Seconds(model, rec.Phases(), 128)
	if !(t8 > t128) {
		t.Fatalf("no scaling: %v vs %v", t8, t128)
	}
}
