package core_test

// Degree-skew determinism: the worst imbalance a sweep partition can face
// is a star graph, whose hub has degree N-1 while every other vertex has
// degree 1. Vertex-count chunking would leave the hub's chunk almost all the
// work; the degree-weighted ranges isolate the hub into its own narrow chunk,
// and a sparse sweep cuts its candidates at the same ranges. Either way the
// engine's invariant must hold: Result and trace profile bit-identical at
// any worker count — and, for the associative combiners and aggregators these
// programs use, Result identical between the full scan and the sparse sweep
// as well. The hub also funnels >= hubFoldMin messages into one inbox,
// exercising the combining path's segment prefold.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// skewN is the star size: large enough that the hub's inbox (N-1 combined
// messages) crosses both the parallel-delivery threshold and the hub
// prefold threshold, and that sweeps split into many chunks.
const skewN = 1 << 14

func skewCases(g *graph.Graph) []struct {
	name string
	mk   func() core.Config
} {
	return []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 1}}
		}},
		{"cc/combiner", func() core.Config {
			// Hub inbox: every leaf sends to vertex 0 each superstep, so the
			// combining path sees one group of N-1 messages.
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"pagerank/combiner", func() core.Config {
			return core.Config{
				Program:  bspalg.PageRankProgram{DampingMilli: 850, Rounds: 10},
				Combiner: core.Sum,
			}
		}},
	}
}

// skewSweeps runs every skew case as a full scan and as a sparse sweep,
// each at 1 worker and at every count in workers: bit-identical Result and
// profile across worker counts, and the same Result from both sweeps (these
// programs' reductions are associative, so the partition cannot change
// answers; the profiles differ by the scan charges).
func skewSweeps(t *testing.T, g *graph.Graph, workers ...int) {
	for _, tc := range skewCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			var baseline *core.Result
			for _, sparse := range []bool{false, true} {
				mk := func() core.Config {
					cfg := tc.mk()
					cfg.SparseActivation = sparse
					return cfg
				}
				baseRes, basePh := runDet(t, g, 1, mk)
				for _, w := range workers {
					res, ph := runDet(t, g, w, mk)
					if !reflect.DeepEqual(baseRes, res) {
						t.Fatalf("sparse=%v w=%d: Result differs from 1-worker run\n  supersteps %d vs %d\n  active %v vs %v",
							sparse, w, baseRes.Supersteps, res.Supersteps,
							baseRes.ActivePerStep, res.ActivePerStep)
					}
					comparePhases(t, basePh, ph)
				}
				if baseline == nil {
					baseline = baseRes
				} else if !reflect.DeepEqual(baseline, baseRes) {
					t.Fatalf("full scan and sparse sweep disagree")
				}
			}
		})
	}
}

// TestSkewDeterminismStar runs the skew matrix at 1/3/8 workers on the star.
func TestSkewDeterminismStar(t *testing.T) {
	skewSweeps(t, gen.Star(skewN), 3, 8)
}

// TestSkewDeterminismPowerLaw runs the same matrix on a Barabási–Albert
// power-law graph, so the guarantee does not hinge on the star's extreme
// structure.
func TestSkewDeterminismPowerLaw(t *testing.T) {
	g, err := gen.BarabasiAlbert(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	skewSweeps(t, g, 8)
}

// TestSkewRecoveryStar kills a CC run on the star at every superstep
// boundary and resumes it: resumed
// Result and profile must match the uninterrupted run bit-for-bit, at
// multiple worker counts (the resume-mid-run case on a skewed graph).
func TestSkewRecoveryStar(t *testing.T) {
	g := gen.Star(skewN)
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
	}
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			base, basePh, err := runRec(g, w, mk())
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= base.Supersteps-2; k++ {
				dir := t.TempDir()
				plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
				cfg := mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
				_, _, err := runRec(g, w, cfg)
				var ie *core.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
				}

				cfg = mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir}
				cfg.Resume = ie.CheckpointPath
				res, ph, err := runRec(g, w, cfg)
				if err != nil {
					t.Fatalf("resume from kill@%d: %v", k, err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("kill@%d: resumed Result differs from uninterrupted run", k)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestScheduleFingerprintMismatch: the fingerprint names the sweep
// partition — aggregator fold trees follow chunk boundaries, so a run must
// never resume under boundaries it did not start with. A sparse checkpoint
// written by an engine that cut sparse sweeps differently (its fingerprint
// said "degree") is a typed mismatch; a full-scan one, whose boundaries
// never changed, resumes.
func TestScheduleFingerprintMismatch(t *testing.T) {
	g := gen.Star(1 << 10)
	kill := func(sparse bool) string {
		plan := &faultinject.Plan{KillAt: map[int64]bool{1: true}}
		cfg := core.Config{
			Program:          bspalg.CCProgram{},
			Combiner:         core.Min,
			SparseActivation: sparse,
			Checkpoint:       &ckpt.Policy{Dir: t.TempDir(), Hooks: plan.Hooks()},
		}
		_, _, err := runRec(g, 1, cfg)
		var ie *core.InterruptedError
		if !errors.As(err, &ie) {
			t.Fatalf("sparse=%v: want InterruptedError, got %v", sparse, err)
		}
		return ie.CheckpointPath
	}
	resume := func(sparse bool, path string) error {
		_, _, err := runRec(g, 1, core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: sparse, Resume: path})
		return err
	}

	path := kill(true)
	snap, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.FP.Schedule != "ranges" {
		t.Fatalf("sparse checkpoint names partition %q, want ranges", snap.FP.Schedule)
	}
	snap.FP.Schedule = "degree"
	old, err := ckpt.WriteFile(t.TempDir(), snap, "old.gxckpt", nil)
	if err != nil {
		t.Fatal(err)
	}
	var me *ckpt.MismatchError
	if err := resume(true, old); !errors.As(err, &me) {
		t.Fatalf("sparse checkpoint under the old partition: want MismatchError, got %v", err)
	}
	if me.Field != "chunk schedule" || me.Got != "degree" || me.Want != "ranges" {
		t.Fatalf("MismatchError = %+v, want chunk schedule degree vs ranges", me)
	}
	if err := resume(true, path); err != nil {
		t.Fatalf("sparse resume: %v", err)
	}
	full := kill(false)
	if snap, err := ckpt.Load(full); err != nil || snap.FP.Schedule != "degree" {
		t.Fatalf("full-scan checkpoint: %v, want partition degree", err)
	}
	if err := resume(false, full); err != nil {
		t.Fatalf("full-scan resume: %v", err)
	}
}
