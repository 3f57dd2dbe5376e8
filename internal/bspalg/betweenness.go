package bspalg

import (
	"fmt"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

// BSP betweenness centrality: Brandes' algorithm expressed as two
// vertex-centric passes per source, the standard Pregel formulation.
//
// Forward pass (sigmaProgram): a level-synchronous BFS in which a vertex
// settling at level t sums the shortest-path counts (sigma) arriving from
// its level-(t-1) predecessors and floods its own sigma onward — the BSP
// model's superstep boundary IS the level synchronization, so path counts
// are exact by construction.
//
// Backward pass (deltaProgram): dependencies flow back one level per
// superstep. A vertex at level L acts at superstep (maxLevel - L): it sums
// the contributions (1+delta(w))/sigma(w) sent by its level-(L+1)
// successors, multiplies by its own sigma, and relays its own contribution
// to its predecessors. Contributions travel as fixed-point int64 messages
// (deltaScale), bounding precision; tests hold the result to the exact
// shared-memory kernel within a small relative error.
const deltaScale = 1_000_000_000

// sigmaProgram runs the forward pass. State is the vertex's BFS level
// (unreachable until settled); sigma lives in the program (the vertex
// value beyond the engine's int64 state slot).
type sigmaProgram struct {
	source int64
	sigma  []int64
}

func (p *sigmaProgram) InitialState(_ *graph.Graph, v int64) int64 {
	if v == p.source {
		return 0
	}
	return unreachable
}

func (p *sigmaProgram) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		if v.ID() == p.source {
			p.sigma[v.ID()] = 1
			v.SendToNeighbors(1)
		}
		v.VoteToHalt()
		return
	}
	if v.State() >= unreachable {
		// First messages: settle at this level with the summed path count.
		var sum int64
		for _, m := range v.Messages() {
			sum += m
		}
		v.SetState(int64(v.Superstep()))
		p.sigma[v.ID()] = sum
		v.SendToNeighbors(sum)
	}
	// Already-settled vertices discard duplicate-frontier messages, like
	// Algorithm 2's BFS.
	v.VoteToHalt()
}

// deltaProgram runs the backward pass. dist and sigma come from the
// forward pass; delta accumulates fixed-point dependencies.
type deltaProgram struct {
	dist     []int64
	sigma    []int64
	delta    []int64 // fixed-point
	maxLevel int64
}

func (p *deltaProgram) InitialState(*graph.Graph, int64) int64 { return 0 }

func (p *deltaProgram) Compute(v *core.VertexContext) {
	d := p.dist[v.ID()]
	if d < 0 || d >= unreachable || p.sigma[v.ID()] == 0 {
		v.VoteToHalt()
		return
	}
	myStep := p.maxLevel - d
	step := int64(v.Superstep())
	if step < myStep {
		return // stay active until our level's turn
	}
	if step > myStep {
		v.VoteToHalt() // late stray activation; nothing to do
		return
	}
	// Our turn: sum successor contributions, then relay ours upstream.
	// Messages are fixed-point (1+delta(w))/sigma(w); multiplying by our
	// sigma keeps delta in fixed point.
	var sum int64
	for _, m := range v.Messages() {
		sum += m
	}
	delta := sum * p.sigma[v.ID()]
	p.delta[v.ID()] = delta
	if d > 0 {
		contribution := (deltaScale + delta) / p.sigma[v.ID()]
		for _, w := range v.Neighbors() {
			if p.dist[w] == d-1 {
				v.Send(w, contribution)
			}
		}
		v.Charge(v.Degree(), v.Degree(), 0)
	}
	v.VoteToHalt()
}

// BetweennessOptions configures Betweenness.
type BetweennessOptions struct {
	// Samples is the number of source vertices (0 = every vertex).
	Samples int
	// Seed selects sampled sources deterministically.
	Seed uint64
}

// BetweennessResult is the output of Betweenness.
type BetweennessResult struct {
	// Score holds (approximate) betweenness per vertex, scaled like the
	// shared-memory kernel's (each pair counted in both directions;
	// sampled runs scaled by n/samples).
	Score []float64
	// Sources are the BFS roots used.
	Sources []int64
	// Supersteps is the total supersteps across all passes.
	Supersteps int
}

// Betweenness computes BSP betweenness centrality over unweighted graphs.
// Trailing engine options apply to every pass (both directions of every
// sampled source) — how callers thread retry and watchdog supervision
// through a multi-run algorithm. Checkpoint/resume options are not
// supported here: the passes share no resumable state.
func Betweenness(g *graph.Graph, opt BetweennessOptions, rec *trace.Recorder, opts ...core.Option) (*BetweennessResult, error) {
	n := g.NumVertices()
	res := &BetweennessResult{Score: make([]float64, n)}
	if n == 0 {
		return res, nil
	}
	if opt.Samples <= 0 || int64(opt.Samples) >= n {
		for s := int64(0); s < n; s++ {
			res.Sources = append(res.Sources, s)
		}
	} else {
		r := rng.New(opt.Seed)
		seen := make(map[int64]bool, opt.Samples)
		for len(res.Sources) < opt.Samples {
			s := int64(r.Uint64n(uint64(n)))
			if !seen[s] {
				seen[s] = true
				res.Sources = append(res.Sources, s)
			}
		}
	}
	scale := 1.0
	if int64(len(res.Sources)) < n {
		scale = float64(n) / float64(len(res.Sources))
	}

	sigma := make([]int64, n)
	delta := make([]int64, n)
	for _, s := range res.Sources {
		for i := range sigma {
			sigma[i], delta[i] = 0, 0
		}
		fwd := &sigmaProgram{source: s, sigma: sigma}
		fwdCfg := core.Config{Graph: g, Program: fwd, Recorder: rec}
		for _, o := range opts {
			o(&fwdCfg)
		}
		fres, err := core.Run(fwdCfg)
		if err != nil {
			return nil, fmt.Errorf("bspalg: betweenness forward pass: %w", err)
		}
		res.Supersteps += fres.Supersteps

		var maxLevel int64
		for v := int64(0); v < n; v++ {
			if d := fres.States[v]; d < unreachable && d > maxLevel {
				maxLevel = d
			}
		}
		bwd := &deltaProgram{dist: fres.States, sigma: sigma, delta: delta, maxLevel: maxLevel}
		bwdCfg := core.Config{
			Graph:         g,
			Program:       bwd,
			Recorder:      rec,
			MaxSupersteps: int(maxLevel) + 3,
		}
		for _, o := range opts {
			o(&bwdCfg)
		}
		bres, err := core.Run(bwdCfg)
		if err != nil {
			return nil, fmt.Errorf("bspalg: betweenness backward pass: %w", err)
		}
		res.Supersteps += bres.Supersteps

		for v := int64(0); v < n; v++ {
			if v != s {
				res.Score[v] += float64(delta[v]) / deltaScale * scale
			}
		}
	}
	return res, nil
}
