package core_test

// This file keeps docs/TUTORIAL.md honest: it implements the tutorial's
// kHopMin program verbatim and verifies it against brute force.

import (
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

// bruteKHopMin computes the minimum ID within k hops of every vertex by
// bounded BFS.
func bruteKHopMin(g *graph.Graph, k int) []int64 {
	n := g.NumVertices()
	out := make([]int64, n)
	for s := int64(0); s < n; s++ {
		minID := s
		dist := map[int64]int{s: 0}
		queue := []int64{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if v < minID {
				minID = v
			}
			if dist[v] == k {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		out[s] = minID
	}
	return out
}

func TestTutorialKHopMin(t *testing.T) {
	g := gen.Ring(12)
	res, err := core.Run(core.Config{Graph: g, Program: kHopMin{K: 2}, Combiner: core.Min})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKHopMin(g, 2)
	for v := range want {
		if res.States[v] != want[v] {
			t.Fatalf("state[%d] = %d, want %d", v, res.States[v], want[v])
		}
	}
	// k supersteps of flooding plus the final all-quiet superstep.
	if res.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want 3", res.Supersteps)
	}
}

func TestTutorialKHopMinProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw, kRaw uint8) bool {
		n := int64(nRaw%25) + 2
		k := int(kRaw%4) + 1
		r := rng.New(seed)
		edges := make([]graph.Edge, int(mRaw%80))
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{})
		if err != nil {
			return false
		}
		res, err := core.Run(core.Config{Graph: g, Program: kHopMin{K: k}, Combiner: core.Min})
		if err != nil {
			return false
		}
		want := bruteKHopMin(g, k)
		for v := range want {
			if res.States[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTutorialProfileEvaluates(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := core.Run(core.Config{Graph: g, Program: kHopMin{K: 2},
		Combiner: core.Min, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	model := machine.NewAnalytic(machine.DefaultConfig())
	t8 := machine.Seconds(model, rec.Phases(), 8)
	t128 := machine.Seconds(model, rec.Phases(), 128)
	if !(t8 > t128) {
		t.Fatalf("no scaling: %v vs %v", t8, t128)
	}
}
