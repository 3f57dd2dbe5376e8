package bspalg

import (
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// prScale is the fixed-point scale for PageRank state and messages: the
// engine's message payloads are int64, so probabilities travel as
// round(p * prScale). With 10^12 resolution the quantization error after
// tens of iterations stays far below the convergence tolerances anyone
// uses.
const prScale = 1_000_000_000_000

// PageRankProgram is vertex-centric PageRank with a fixed iteration count,
// the formulation of the Pregel paper: for Rounds supersteps each vertex
// sets rank = (1-d)/N + d * sum(messages) and scatters rank/degree to its
// neighbors; afterwards every vertex votes to halt.
type PageRankProgram struct {
	// Damping in fixed-point thousandths; 850 = 0.85.
	DampingMilli int64
	// Rounds is the number of rank-update supersteps.
	Rounds int
}

// InitialState implements core.Program: uniform 1/N in fixed point.
func (p PageRankProgram) InitialState(g *graph.Graph, _ int64) int64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return prScale / g.NumVertices()
}

// Compute implements core.Program.
func (p PageRankProgram) Compute(v *core.VertexContext) {
	d := p.DampingMilli
	if v.Superstep() > 0 {
		var sum int64
		for _, m := range v.Messages() {
			sum += m
		}
		base := (1000 - d) * (prScale / v.NumVertices()) / 1000
		v.SetState(base + d*sum/1000)
	}
	if v.Superstep() < p.Rounds {
		if deg := v.Degree(); deg > 0 {
			v.SendToNeighbors(v.State() / deg)
		}
	}
	v.VoteToHalt()
}

// PageRankResult is the output of PageRank.
type PageRankResult struct {
	// Rank holds each vertex's PageRank as float64 (approximately sums
	// to 1; dangling mass is not redistributed, matching the Pregel
	// paper's formulation).
	Rank []float64
	// Supersteps executed.
	Supersteps int
}

// PageRank runs fixed-point BSP PageRank for rounds supersteps with
// damping 0.85, combining messages by summation.
func PageRank(g *graph.Graph, rounds int, rec *trace.Recorder, opts ...core.Option) (*PageRankResult, error) {
	if rounds <= 0 {
		rounds = 30
	}
	res, err := run(core.Config{
		Graph:    g,
		Program:  PageRankProgram{DampingMilli: 850, Rounds: rounds},
		Combiner: core.Sum,
		Recorder: rec,
		// The program runs exactly rounds+2 supersteps (power iteration,
		// then drain); a rounds above the default budget is intentional,
		// not a runaway.
		MaxSupersteps: rounds + 2,
	}, opts)
	if err != nil {
		return nil, err
	}
	out := &PageRankResult{
		Rank:       make([]float64, len(res.States)),
		Supersteps: res.Supersteps,
	}
	for i, s := range res.States {
		out.Rank[i] = float64(s) / prScale
	}
	return out, nil
}
