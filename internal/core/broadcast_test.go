package core_test

// The broadcast message path's contract: keeping SendToNeighbors traffic as
// O(frontier) broadcast records instead of O(edges) expanded messages is
// invisible everywhere except the physical-traffic counter. Result, trace
// profile, and logical message counts are bit-identical to the eager
// per-edge expansion (WithExpandBroadcasts) at any worker count, across
// dense and sparse delivery, with and without a combiner, for mixed
// unicast+broadcast supersteps, and through checkpoint/resume.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

// TestBroadcastMatchesExpandedPath: the record path vs the expanded path,
// elementwise. The reference is a 1-worker run with WithExpandBroadcasts (the
// legacy eager expansion); the record path must match it bit-for-bit at 1,
// 3, and 8 workers, and the expanded path must stay worker-deterministic
// too. detGraph's dense supersteps carry ~2x16K logical messages, above
// pullMinEdges, so the engine pulls them; the shrinking tail
// supersteps fall below it and push their records.
func TestBroadcastMatchesExpandedPath(t *testing.T) {
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
		{"labelprop/dense", func() core.Config {
			return core.Config{Program: bspalg.NewLPProgram(g, 30)}
		}},
		{"pagerank/combiner", func() core.Config {
			return core.Config{
				Program:  bspalg.PageRankProgram{DampingMilli: 850, Rounds: 15},
				Combiner: core.Sum,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkExpand := func() core.Config {
				cfg := tc.mk()
				core.WithExpandBroadcasts(true)(&cfg)
				return cfg
			}
			baseRes, basePh := runDet(t, g, 1, mkExpand)
			for _, w := range []int{1, 3, 8} {
				res, ph := runDet(t, g, w, tc.mk)
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: broadcast-path Result differs from expanded reference\n  supersteps %d vs %d\n  msgs %v vs %v",
						w, baseRes.Supersteps, res.Supersteps,
						baseRes.MessagesPerStep, res.MessagesPerStep)
				}
				comparePhases(t, basePh, ph)
			}
			for _, w := range []int{3, 8} {
				res, ph := runDet(t, g, w, mkExpand)
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: expanded-path Result not worker-deterministic", w)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// orderFold mixes unicasts and broadcasts in one Compute call and folds its
// inbox through a non-commutative hash, so any deviation in message ORDER —
// not just content — changes the final states. This pins traffic.all's
// merge by seq: a broadcast record must land its per-edge messages exactly
// where per-edge sends would have appended them, between the unicasts sent
// before and after it.
type orderFold struct {
	n      int64
	rounds int
}

func (p orderFold) InitialState(_ *graph.Graph, v int64) int64 { return v + 1 }

func (p orderFold) Compute(v *core.VertexContext) {
	st := v.State()
	for _, m := range v.Messages() {
		st = st*1000003 + m
	}
	v.SetState(st)
	if v.Superstep() < p.rounds {
		if v.ID()%3 == 0 {
			v.Send((v.ID()+7)%p.n, v.ID())
		}
		v.SendToNeighbors(st)
		if v.ID()%5 == 0 {
			v.Send((v.ID()+3)%p.n, -st)
		}
	}
	v.VoteToHalt()
}

func TestBroadcastMixedSendOrder(t *testing.T) {
	g := detGraph(t)
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			mk := func(expand bool) func() core.Config {
				return func() core.Config {
					cfg := core.Config{Program: orderFold{n: g.NumVertices(), rounds: 4}, SparseActivation: sparse}
					core.WithExpandBroadcasts(expand)(&cfg)
					return cfg
				}
			}
			baseRes, basePh := runDet(t, g, 1, mk(true))
			for _, w := range []int{1, 3, 8} {
				res, ph := runDet(t, g, w, mk(false))
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: mixed-order Result differs from expanded reference", w)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestBroadcastCheckpointRoundTrip: a dense flood killed at a boundary
// whose in-flight traffic is pure broadcast writes a checkpoint carrying
// records (not per-edge messages), and resuming from it — under either
// delivery treatment, since the treatment is not fingerprinted — is
// bit-identical to the uninterrupted run.
func TestBroadcastCheckpointRoundTrip(t *testing.T) {
	g := detGraph(t)
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}}
	}
	base, basePh, err := runRec(g, 3, mk())
	if err != nil {
		t.Fatal(err)
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
		snap, err := ckpt.Load(ie.CheckpointPath)
		if err != nil {
			t.Fatalf("kill@%d: loading checkpoint: %v", k, err)
		}
		// Every boundary of CC is all-broadcast: the snapshot holds records,
		// zero per-edge messages.
		if len(snap.BcastSrc) == 0 || len(snap.MsgDest) != 0 {
			t.Fatalf("kill@%d: snapshot has %d broadcast records and %d unicasts; want records only",
				k, len(snap.BcastSrc), len(snap.MsgDest))
		}
		if int64(len(snap.BcastSrc)) > g.NumVertices() {
			t.Fatalf("kill@%d: %d broadcast records exceeds the %d-vertex frontier bound",
				k, len(snap.BcastSrc), g.NumVertices())
		}
		for _, expand := range []bool{false, true} {
			cfg = mk()
			core.WithExpandBroadcasts(expand)(&cfg)
			cfg.Checkpoint = &ckpt.Policy{Dir: dir}
			cfg.Resume = ie.CheckpointPath
			res, ph, err := runRec(g, 3, cfg)
			if err != nil {
				t.Fatalf("resume from kill@%d (expand=%v): %v", k, expand, err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("kill@%d expand=%v: resumed Result differs from uninterrupted run", k, expand)
			}
			comparePhases(t, basePh, ph)
		}
	}
}

// stepCapture is an obs sink retaining per-superstep counters only.
type stepCapture struct {
	steps []obs.StepStats
}

func (c *stepCapture) RunStart(obs.RunInfo)  {}
func (c *stepCapture) Span(obs.Span)         {}
func (c *stepCapture) Step(st obs.StepStats) { c.steps = append(c.steps, st) }
func (c *stepCapture) Mem(obs.MemSample)     {}
func (c *stepCapture) RunEnd(time.Duration)  {}

// TestBroadcastPhysicalCounter: the logical Sent counter (the paper's
// per-edge message count, what the cost model charges) is identical under
// both treatments, while SentPhysical is the record count — at most the
// frontier — on every superstep, and equals Sent under per-edge sends.
func TestBroadcastPhysicalCounter(t *testing.T) {
	g := detGraph(t)
	run := func(expand bool) []obs.StepStats {
		sink := &stepCapture{}
		cfg := core.Config{Graph: g, Program: bspalg.CCProgram{}, Obs: sink}
		core.WithExpandBroadcasts(expand)(&cfg)
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return sink.steps
	}
	rec, exp := run(false), run(true)
	if len(rec) != len(exp) {
		t.Fatalf("superstep counts differ: %d vs %d", len(rec), len(exp))
	}
	sawCollapse := false
	for i := range rec {
		if rec[i].Sent != exp[i].Sent {
			t.Fatalf("step %d: logical Sent differs between treatments: %d vs %d",
				i, rec[i].Sent, exp[i].Sent)
		}
		if exp[i].SentPhysical != exp[i].Sent {
			t.Fatalf("step %d: per-edge SentPhysical %d != Sent %d",
				i, exp[i].SentPhysical, exp[i].Sent)
		}
		if rec[i].SentPhysical > min(rec[i].Sent, g.NumVertices()) {
			t.Fatalf("step %d: SentPhysical %d exceeds logical Sent %d or the vertex count %d",
				i, rec[i].SentPhysical, rec[i].Sent, g.NumVertices())
		}
		sawCollapse = sawCollapse || rec[i].SentPhysical < rec[i].Sent
	}
	if !sawCollapse {
		t.Fatal("broadcast traffic never collapsed below the logical count")
	}
	// Result-level counters are logical too and must match the paper count:
	// superstep 0 of a dense CC flood sends one message per directed edge.
	if rec[0].Sent != int64(len(g.Adjacency())) {
		t.Fatalf("step 0 logical Sent = %d, want one per edge = %d",
			rec[0].Sent, len(g.Adjacency()))
	}
}

// TestBroadcastStarPaths drives the two specialized dense deliveries on the
// degree-skew extreme: the star's non-combined flood scatters records
// through the hub's quarter-length adjacency, and the combined flood takes
// the pull-side fold. Both must match the expanded reference exactly.
func TestBroadcastStarPaths(t *testing.T) {
	star := gen.Star(1 << 15)
	for _, tc := range []struct {
		name string
		mk   func() core.Config
	}{
		{"scatter", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}}
		}},
		{"pull-combine", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkExpand := func() core.Config {
				cfg := tc.mk()
				core.WithExpandBroadcasts(true)(&cfg)
				return cfg
			}
			baseRes, basePh := runDet(t, star, 1, mkExpand)
			for _, w := range []int{1, 3, 8} {
				res, ph := runDet(t, star, w, tc.mk)
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: star Result differs from expanded reference", w)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestMultiBFSExpandedBroadcasts: a batched multi-source BFS, whose
// broadcasts carry 64 lane bits, unpacks to the same per-lane distances and
// reports the same per-superstep active-lane counts (a pure function of the
// logical traffic) under the per-edge treatment, at every worker count,
// representation and direction mode.
func TestMultiBFSExpandedBroadcasts(t *testing.T) {
	flat, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	n := flat.NumVertices()
	var sources []int64
	for i := int64(0); i < 48; i++ {
		sources = append(sources, i*n/40%n) // the last eight repeat the first
	}
	plan, err := batch.NewPlan(sources, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{flat, core.MustCompress(flat)} {
		for _, dir := range []core.DirectionMode{core.DirAuto, core.DirPush, core.DirPull} {
			for _, w := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/w=%d", g.Rep(), dir, w), func(t *testing.T) {
					defer par.SetWorkers(par.SetWorkers(w))
					run := func(expand bool) (dist [][]int64, lanes []int64) {
						sink := &stepCapture{}
						mr, err := bspalg.MultiBFS(g, plan, nil, core.ForceDirection(dir), core.WithExpandBroadcasts(expand),
							func(c *core.Config) { c.Obs = sink })
						if err != nil {
							t.Fatal(err)
						}
						for lane := range plan.Sources {
							dist = append(dist, mr.Dist(lane))
						}
						for _, st := range sink.steps {
							lanes = append(lanes, st.Lanes)
						}
						return dist, lanes
					}
					recDist, recLanes := run(false)
					expDist, expLanes := run(true)
					if !reflect.DeepEqual(recDist, expDist) {
						t.Fatal("per-lane distances differ between broadcast treatments")
					}
					if !reflect.DeepEqual(recLanes, expLanes) || len(recLanes) == 0 || recLanes[0] == 0 {
						t.Fatalf("lane counts differ across broadcast treatments:\n  record %v\n  expand %v", recLanes, expLanes)
					}
				})
			}
		}
	}
}
