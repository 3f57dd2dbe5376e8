package core_test

import (
	"fmt"
	"testing"
	"time"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

// regionSink totals, per engine phase, the parallel regions a run forked.
type regionSink struct {
	phases map[string]int64
	steps  int
}

func (c *regionSink) RunStart(obs.RunInfo) { c.phases = map[string]int64{} }
func (c *regionSink) Span(s obs.Span)      { c.phases[s.Name] += s.Regions }
func (c *regionSink) Step(obs.StepStats)   { c.steps++ }
func (c *regionSink) Mem(obs.MemSample)    {}
func (c *regionSink) RunEnd(time.Duration) {}

// TestRegionsPerSuperstep pins how many parallel regions (par's
// fork/joins) each engine phase forks over a run, as a ceiling per row:
// the counts measured when the engine's loops were first counted. A change
// that adds a fork to a phase fails the rows that reach it; one that
// removes forks passes, and should lower the ceilings. With one worker no
// phase may fork at all. Above one worker the counts do not depend on the
// worker count: every decision to fork reads worker-independent sizes, and
// asks of the worker count only whether it exceeds one.
func TestRegionsPerSuperstep(t *testing.T) {
	rmat := func(scale int) *graph.Graph {
		g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	r14, r12 := rmat(14), rmat(12)
	grid, path := gen.Grid(128, 128), gen.Path(1<<13)
	withObs := func(sink obs.Sink) core.Option { return func(c *core.Config) { c.Obs = sink } }
	for _, row := range []struct {
		name  string
		steps int
		// ceiling is the most regions each phase may fork over the run.
		ceiling map[string]int64
		run     func(sink obs.Sink) error
	}{
		{"bfs/push", 6, map[string]int64{"init": 1, "compute": 6, "deliver": 10}, func(sink obs.Sink) error {
			_, err := bspalg.BFS(r14, 0, nil, core.ForceDirection(core.DirPush), withObs(sink))
			return err
		}},
		{"bfs/auto", 6, map[string]int64{"init": 1, "compute": 6}, func(sink obs.Sink) error {
			_, err := bspalg.BFS(r14, 0, nil, withObs(sink))
			return err
		}},
		{"pagerank/sum", 11, map[string]int64{"init": 1, "compute": 22, "deliver": 1}, func(sink obs.Sink) error {
			_, err := bspalg.PageRank(r14, 10, nil, withObs(sink))
			return err
		}},
		{"tc/unicast", 4, map[string]int64{"init": 1, "compute": 6, "deliver": 12}, func(sink obs.Sink) error {
			_, err := bspalg.Triangles(r12, nil, withObs(sink))
			return err
		}},
		{"cc/sparse-grid", 256, map[string]int64{"init": 1, "compute": 264, "deliver": 165, "worklist": 420}, func(sink obs.Sink) error {
			_, err := bspalg.ConnectedComponents(grid, nil, withObs(sink), func(c *core.Config) { c.SparseActivation = true })
			return err
		}},
		{"relay/path", 4098, map[string]int64{"init": 1, "compute": 2}, func(sink obs.Sink) error {
			_, err := core.Run(core.Config{Graph: path, Program: bspalg.BFSProgram{Source: path.NumVertices() / 2},
				SparseActivation: true, MaxSupersteps: -1, Obs: sink})
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
					defer par.SetWorkers(par.SetWorkers(w))
					sink := &regionSink{}
					if err := row.run(sink); err != nil {
						t.Fatal(err)
					}
					if sink.steps != row.steps {
						t.Fatalf("%d supersteps, want %d", sink.steps, row.steps)
					}
					for phase, got := range sink.phases {
						ceiling := row.ceiling[phase]
						if w == 1 {
							ceiling = 0
						}
						if got > ceiling {
							t.Errorf("%s forked %d regions (%.2f per superstep), ceiling %d",
								phase, got, float64(got)/float64(row.steps), ceiling)
						}
					}
				})
			}
		})
	}
}
