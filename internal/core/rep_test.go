package core_test

// Representation invariance, asserted end to end: a BSP run's Result and
// recorded trace profile are bit-identical whether the graph's adjacency
// is flat or delta-varint compressed, at any host worker count and under
// both broadcast delivery treatments. The engine's logical counters are
// functions of the neighbor sequences, never of how the bytes are stored,
// so the representation — like host parallelism — must never leak into
// the machine model.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/graph"
)

// TestEngineRepMatrix runs BFS, CC, and PageRank over the flat graph and
// its compressed twin, at 1, 3, and 8 workers, under both broadcast
// treatments (records read at delivery vs per-edge messages at send).
// Every cell must be bit-identical — Result and trace profile — to the
// flat 1-worker record-delivery baseline.
func TestEngineRepMatrix(t *testing.T) {
	flat := detGraph(t)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs/dense", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}}
		}},
		{"cc/combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"pagerank/combiner", func() core.Config {
			return core.Config{
				Program:  bspalg.PageRankProgram{DampingMilli: 850, Rounds: 15},
				Combiner: core.Sum,
			}
		}},
	}
	reps := []struct {
		name string
		g    *graph.Graph
	}{
		{"flat", flat},
		{"compressed", comp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseRes, basePh := runDet(t, flat, 1, tc.mk)
			for _, rep := range reps {
				for _, w := range []int{1, 3, 8} {
					for _, expand := range []bool{false, true} {
						mk := func() core.Config {
							cfg := tc.mk()
							core.WithExpandBroadcasts(expand)(&cfg)
							return cfg
						}
						res, ph := runDet(t, rep.g, w, mk)
						if !reflect.DeepEqual(baseRes, res) {
							t.Fatalf("%s w=%d expand=%v: Result differs from flat baseline\n  supersteps %d vs %d\n  active %v vs %v\n  msgs %v vs %v",
								rep.name, w, expand,
								baseRes.Supersteps, res.Supersteps,
								baseRes.ActivePerStep, res.ActivePerStep,
								baseRes.MessagesPerStep, res.MessagesPerStep)
						}
						comparePhases(t, basePh, ph)
					}
				}
			}
		})
	}
}

// TestRecoveryCompressedMatrix kills a compressed-graph run at every
// superstep boundary and resumes it on the same compressed graph: Result
// and profile must be bit-identical to the uninterrupted compressed run —
// which TestEngineRepMatrix already pins to the flat baseline.
func TestRecoveryCompressedMatrix(t *testing.T) {
	comp, err := graph.Compress(detGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs/dense", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 0}}
		}},
		{"cc/sparse-combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, basePh, err := runRec(comp, 3, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= base.Supersteps-2; k++ {
				dir := t.TempDir()
				plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
				cfg := tc.mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
				_, _, err := runRec(comp, 3, cfg)
				var ie *core.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
				}
				if ie.Superstep != k || ie.CheckpointPath == "" {
					t.Fatalf("kill@%d: InterruptedError = %+v", k, ie)
				}
				cfg = tc.mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir}
				cfg.Resume = ie.CheckpointPath
				res, ph, err := runRec(comp, 3, cfg)
				if err != nil {
					t.Fatalf("resume from kill@%d: %v", k, err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("kill@%d: resumed Result differs from uninterrupted compressed run", k)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestResumeRejectsRepMismatch: a checkpoint taken on a compressed graph
// cannot resume on the flat twin (and vice versa). The representation is
// part of the fingerprint — the graph CRC hashes the stored bytes, and
// the Rep field names the difference when everything else matches.
func TestResumeRejectsRepMismatch(t *testing.T) {
	flat := detGraph(t)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name       string
		ckptG, rsG *graph.Graph
	}{
		{"compressed-to-flat", comp, flat},
		{"flat-to-compressed", flat, comp},
	} {
		t.Run(dir.name, func(t *testing.T) {
			cdir := t.TempDir()
			plan := &faultinject.Plan{KillAt: map[int64]bool{1: true}}
			cfg := core.Config{
				Program:    bspalg.CCProgram{},
				Combiner:   core.Min,
				Checkpoint: &ckpt.Policy{Dir: cdir, Hooks: plan.Hooks()},
			}
			_, _, err := runRec(dir.ckptG, 3, cfg)
			var ie *core.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("want InterruptedError, got %v", err)
			}
			cfg = core.Config{
				Program:    bspalg.CCProgram{},
				Combiner:   core.Min,
				Checkpoint: &ckpt.Policy{Dir: cdir},
				Resume:     ie.CheckpointPath,
			}
			_, _, err = runRec(dir.rsG, 3, cfg)
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("cross-representation resume: want MismatchError, got %v", err)
			}
			// The CRC row fires first (it hashes the stored bytes), but
			// either field correctly names the representation change.
			if me.Field != "graph checksum" && me.Field != "representation" {
				t.Fatalf("cross-representation resume: mismatch field %q", me.Field)
			}
		})
	}
}

// TestVertexContextNeighborsCompressed pins the per-vertex decode buffer
// path: a program that reads ctx.Neighbors twice per Compute (and checks
// it against the flat adjacency) over the compressed graph.
func TestVertexContextNeighborsCompressed(t *testing.T) {
	flat := detGraph(t)
	comp, err := graph.Compress(flat)
	if err != nil {
		t.Fatal(err)
	}
	prog := &nbrChecker{flat: flat, fail: make(chan string, 1)}
	_, _, err = runRec(comp, 8, core.Config{Program: prog, MaxSupersteps: 3})
	if err != nil {
		var be *core.BudgetError
		if !errors.As(err, &be) {
			t.Fatal(err)
		}
	}
	select {
	case msg := <-prog.fail:
		t.Fatal(msg)
	default:
	}
}

// nbrChecker compares every ctx.Neighbors() read against the flat twin's
// adjacency; mismatches are reported through a channel since Compute
// cannot fail the test directly.
type nbrChecker struct {
	flat *graph.Graph
	fail chan string
}

func (p *nbrChecker) InitialState(*graph.Graph, int64) int64 { return 0 }

func (p *nbrChecker) Compute(v *core.VertexContext) {
	want := p.flat.Neighbors(v.ID())
	for pass := 0; pass < 2; pass++ {
		got := v.Neighbors()
		if len(got) != len(want) {
			select {
			case p.fail <- fmt.Sprintf("vertex %d: %d neighbors, want %d", v.ID(), len(got), len(want)):
			default:
			}
			return
		}
		for i := range want {
			if got[i] != want[i] {
				select {
				case p.fail <- fmt.Sprintf("vertex %d neighbor %d: %d, want %d", v.ID(), i, got[i], want[i]):
				default:
				}
				return
			}
		}
	}
	v.SendToNeighbors(1)
	v.VoteToHalt()
}
