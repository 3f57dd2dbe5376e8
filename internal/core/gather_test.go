package core_test

// The pull gather reads one value per arc and trusts two things it no longer
// tests there: a slot no broadcaster stamped holds the fold's identity, and
// whether a vertex receives anything was decided once, at the boundary.
// Every row below is a program for which a plausible shortcut on either —
// "a folded identity means no message", "the bits of the last fill can
// stay", "every connected vertex broadcast, so everyone with a neighbor
// receives" — hands some vertex a different inbox than the push engine does.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// scriptProbe broadcasts by script and hashes what arrives, the count
// included: a vertex handed one message worth 0 ends in a different state
// than one handed nothing, and one that never ran in yet another.
type scriptProbe struct {
	rounds int
	// cast returns what v broadcasts in superstep step, one SendToNeighbors
	// per value. A vertex stays awake while it has something left to cast.
	cast func(step int, v int64) []int64
}

func (scriptProbe) InitialState(_ *graph.Graph, v int64) int64 { return v + 1 }
func (scriptProbe) PullCapable() bool                          { return true }

func (p scriptProbe) Compute(v *core.VertexContext) {
	const prime = 1099511628211
	h := v.State()*prime + int64(len(v.Messages()))
	for _, m := range v.Messages() {
		h = h*prime + m
	}
	v.SetState(h)
	step := v.Superstep()
	if step < p.rounds {
		for _, x := range p.cast(step, v.ID()) {
			v.SendToNeighbors(x)
		}
	}
	if step+1 >= p.rounds || len(p.cast(step+1, v.ID())) == 0 {
		v.VoteToHalt()
	}
}

// gatherFolds are the five shapes of the gather: no combiner, the three
// built-in folds, and a closure it cannot recognise.
var gatherFolds = []struct {
	name     string
	f        func(a, b int64) int64
	identity int64
}{
	{"none", nil, 0},
	{"or", core.Or, 0},
	{"sum", core.Sum, 0},
	{"min", core.Min, math.MaxInt64},
	{"closure", func(a, b int64) int64 { return max(a, b) }, math.MinInt64},
}

// pullAgrees runs mk's program with every eligible superstep pulled — flat
// and compressed, full scan and sparse activation, 1, 3 and 8 workers — and
// requires each run to equal, in Result (states, ActivePerStep,
// DeliveredPerStep), in messages consumed per superstep and in the charged
// profile, the one-worker run that pushes every broadcast as per-edge
// messages. It returns the pulled runs' superstep records by schedule
// (false: full scan).
func pullAgrees(t *testing.T, g *graph.Graph, mk func() core.Config) map[bool][]obs.StepStats {
	t.Helper()
	steps := map[bool][]obs.StepStats{}
	for _, sparse := range []bool{false, true} {
		run := func(rep *graph.Graph, w int, d core.DirectionMode, expand bool) (*core.Result, *stepCapture, []*trace.Phase) {
			cfg, sink := mk(), &stepCapture{}
			cfg.Direction, cfg.SparseActivation, cfg.Obs = d, sparse, sink
			core.WithExpandBroadcasts(expand)(&cfg)
			res, ph, err := runRec(rep, w, cfg)
			if err != nil {
				t.Fatalf("%s sparse=%v w=%d %s: %v", rep.Rep(), sparse, w, d, err)
			}
			return sansDirections(res), sink, ph
		}
		base, baseSink, basePh := run(g, 1, core.DirPush, true)
		for _, rep := range []*graph.Graph{g, core.MustCompress(g)} {
			for _, w := range []int{1, 3, 8} {
				cell := fmt.Sprintf("%s sparse=%v w=%d", rep.Rep(), sparse, w)
				res, sink, ph := run(rep, w, core.DirPull, false)
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("%s: pull differs from push\n  active    %v vs %v\n  delivered %v vs %v",
						cell, res.ActivePerStep, base.ActivePerStep, res.DeliveredPerStep, base.DeliveredPerStep)
				}
				for k, st := range sink.steps {
					if want := baseSink.steps[k].Received; st.Received != want {
						t.Fatalf("%s: superstep %d consumed %d messages, push %d", cell, k, st.Received, want)
					}
				}
				comparePhases(t, basePh, ph)
				steps[sparse] = sink.steps
			}
		}
	}
	return steps
}

// wantDelivery pins the delivery labels of a run's first supersteps.
func wantDelivery(t *testing.T, steps []obs.StepStats, want ...string) {
	t.Helper()
	for k, w := range want {
		if got := steps[k].Delivery; got != w {
			t.Errorf("boundary %d delivered by %q, want %q", k, got, w)
		}
	}
}

// connectedVertices counts the vertices with a neighbor and returns the last.
func connectedVertices(g *graph.Graph) (count, last int64) {
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			count, last = count+1, v
		}
	}
	return count, last
}

// hubsGraph is vertex 0 with no edge, hubs 1, 2 and 3, and leaves adjacent
// to all three: enough of them that one hub's broadcast is a superstep big
// enough to pull.
func hubsGraph() *graph.Graph {
	const leaves = 17000
	var edges []graph.Edge
	for l := int64(4); l < 4+leaves; l++ {
		edges = append(edges, graph.Edge{U: 1, V: l}, graph.Edge{U: 2, V: l}, graph.Edge{U: 3, V: l})
	}
	return graph.MustBuild(4+leaves, edges, graph.BuildOptions{})
}

func TestGatherIdentityAndReceivers(t *testing.T) {
	star := gen.Star(20001)
	for _, fold := range gatherFolds {
		t.Run(fold.name, func(t *testing.T) {
			with := func(p scriptProbe) func() core.Config {
				return func() core.Config { return core.Config{Program: p, Combiner: fold.f} }
			}
			id := []int64{fold.identity}

			// (a) An identity-valued message is a message: every leaf's only
			// stamped neighbor sends the fold's identity, then every vertex
			// sends it (a saturated boundary: nobody is stamped as a receiver).
			t.Run("identity-valued", func(t *testing.T) {
				steps := pullAgrees(t, star, with(scriptProbe{rounds: 2, cast: func(step int, v int64) []int64 {
					if step == 1 || v == 0 {
						return id
					}
					return nil
				}}))
				if fold.f != nil {
					wantDelivery(t, steps[false], "pull", "pull+saturated", "none")
					for k, want := range []int64{20000, 20001} {
						if got := steps[false][k+1].Received; got != want {
							t.Errorf("superstep %d consumed %d identity-valued messages, want %d", k+1, got, want)
						}
					}
				}
			})

			// (b) Stale bits never leak: hubs 1, 2, 3 broadcast, then hub 2
			// alone. A leaf must then read 1000 and nothing else: 5 left behind
			// in hub 1's slot would win a Min (the slot has to read MaxInt64
			// again), 7000 in hub 3's the closure's max, either one a Sum or an Or,
			// and a bit left set hands over a second and third message.
			t.Run("stale", func(t *testing.T) {
				first := map[int64][]int64{1: {5}, 2: {6}, 3: {7000}}
				steps := pullAgrees(t, hubsGraph(), with(scriptProbe{rounds: 2, cast: func(step int, v int64) []int64 {
					if step == 0 {
						return first[v]
					} else if v == 2 {
						return []int64{1000}
					}
					return nil
				}}))
				wantDelivery(t, steps[false], "pull", "pull", "none")
			})

			// (d) A source that broadcasts twice in one superstep: pre-folded in
			// record order with a combiner, and with none the boundary falls back
			// to the push scatter; the pull after it starts from a clean lookaside.
			t.Run("duplicate-source", func(t *testing.T) {
				steps := pullAgrees(t, star, with(scriptProbe{rounds: 2, cast: func(step int, v int64) []int64 {
					if v != 0 {
						return nil
					}
					return [][]int64{{3, 4}, {9}}[step]
				}}))
				for _, st := range steps {
					if pulled := strings.HasPrefix(st[0].Delivery, "pull"); st[0].Direction != "pull" || pulled != (fold.f != nil) {
						t.Errorf("twice-broadcasting hub: direction %q, delivery %q", st[0].Direction, st[0].Delivery)
					}
				}
				wantDelivery(t, steps[false][1:], "pull", "none")
			})
		})
	}
}

// TestGatherSaturation: (c) when every vertex with a neighbor broadcasts, a
// combining full-scan boundary says so, delivers to exactly those vertices
// and stamps no receiver; with one of them silent it is an ordinary pull.
// Either way nothing a run returns may differ from the push engine's.
func TestGatherSaturation(t *testing.T) {
	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := connectedVertices(rmat); c == rmat.NumVertices() {
		t.Fatal("the RMAT fixture has no isolated vertex")
	}
	const rounds = 3
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat10", rmat},
		{"star", gen.Star(20001)},
		{"path", gen.Path(10000)},
		// Too small ever to pull: they must simply agree.
		{"n=1", graph.MustBuild(1, nil, graph.BuildOptions{})},
		{"empty", graph.MustBuild(0, nil, graph.BuildOptions{})},
	} {
		connected, last := connectedVertices(tc.g)
		pulls := tc.g.Offsets()[tc.g.NumVertices()] >= 1<<14
		for _, silent := range []int64{-1, last} {
			t.Run(fmt.Sprintf("%s/silent=%d", tc.name, silent), func(t *testing.T) {
				steps := pullAgrees(t, tc.g, func() core.Config {
					return core.Config{Combiner: core.Sum, Program: scriptProbe{rounds: rounds, cast: func(step int, v int64) []int64 {
						if v == silent {
							return nil
						}
						return []int64{v*7 + int64(step)}
					}}}
				})
				if !pulls {
					return
				}
				for sparse, st := range steps {
					want := "pull"
					if !sparse && silent < 0 {
						want = "pull+saturated"
					}
					wantDelivery(t, st, want, want, want, "none")
					for k := 0; silent < 0 && k < rounds; k++ {
						if st[k].Delivered != connected {
							t.Errorf("sparse=%v: boundary %d delivered %d, %d vertices have a neighbor", sparse, k, st[k].Delivered, connected)
						}
					}
				}
			})
		}
	}
}

// TestDeliveryPerStep pins StepStats.Delivery superstep by superstep where
// it cannot depend on the worker count: PageRank floods every edge through
// the Sum fold in every round, so each boundary is a saturated pull.
func TestDeliveryPerStep(t *testing.T) {
	g := detGraph(t)
	for _, w := range []int{1, 3} {
		sink := &stepCapture{}
		cfg := core.Config{Program: bspalg.PageRankProgram{DampingMilli: 850, Rounds: 4}, Combiner: core.Sum, Obs: sink}
		if _, _, err := runRec(g, w, cfg); err != nil {
			t.Fatal(err)
		}
		if len(sink.steps) != 5 {
			t.Fatalf("w=%d: %d supersteps, want 5", w, len(sink.steps))
		}
		wantDelivery(t, sink.steps, "pull+saturated", "pull+saturated", "pull+saturated", "pull+saturated", "none")
	}
}

// hubWatch notes a message arriving at vertex 0.
type hubWatch struct {
	scriptProbe
	phantom *atomic.Bool
}

func (p hubWatch) Compute(v *core.VertexContext) {
	if v.ID() == 0 && len(v.Messages()) > 0 {
		p.phantom.Store(true)
	}
	p.scriptProbe.Compute(v)
}

// TestGatherAsymmetricGraph: (e) on the out-star whose directed flag was
// cleared only the hub has a neighbor list, so the hub broadcasting alone
// looks saturated — and a gather that believed it would fold the hub a
// message out of its leaves' untouched slots, the fold's identity, where
// push delivers one to every leaf and none to the hub. The run's first
// saturated boundary checks, and the combining pull fails typed instead.
func TestGatherAsymmetricGraph(t *testing.T) {
	comp, closer, err := graphio.OpenCSR2(outStarCSR2(t, 20001))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for _, g := range []*graph.Graph{comp, graph.Decompress(comp)} {
		for _, combine := range []func(a, b int64) int64{core.Sum, core.Min} {
			for _, w := range []int{1, 3} {
				var phantom atomic.Bool
				cfg := core.Config{Combiner: combine, Program: hubWatch{phantom: &phantom, scriptProbe: scriptProbe{rounds: 1, cast: func(_ int, v int64) []int64 {
					if v == 0 {
						return []int64{42}
					}
					return nil
				}}}}
				cfg.Direction = core.DirPull
				_, _, err := runRec(g, w, cfg)
				var ae *core.AsymmetricGraphError
				if !errors.As(err, &ae) || ae.Superstep != 0 || ae.Gathered != 0 {
					t.Fatalf("%s w=%d: want AsymmetricGraphError at superstep 0 with nothing gathered, got %v", g.Rep(), w, err)
				}
				cfg.Direction = core.DirPush
				if _, _, err := runRec(g, w, cfg); err != nil {
					t.Fatalf("%s w=%d: forced push: %v", g.Rep(), w, err)
				}
				if phantom.Load() {
					t.Fatalf("%s w=%d: the hub was handed a message no leaf sent", g.Rep(), w)
				}
			}
		}
	}
}
