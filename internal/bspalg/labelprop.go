package bspalg

import (
	"sort"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/trace"
)

// lpProgram is synchronous label-propagation community detection as a
// vertex program. Each vertex keeps a cache of its neighbors' labels (its
// Pregel vertex value beyond the int64 state slot); a vertex whose label
// changes broadcasts (sender, newLabel), receivers update their caches and
// adopt the plurality label over the full cached neighborhood, with the
// shared tie-breaking of graphct.PluralityLabel. Labels observed are always
// one superstep stale — the same staleness the paper analyzes for
// connected components — so the BSP variant needs at least as many
// iterations as the in-place shared-memory sweep, and Rounds caps
// oscillation on symmetric structures.
//
// Messages encode (sender, label) as sender<<32 | label.
type lpProgram struct {
	// Rounds is the maximum number of propagation supersteps.
	Rounds int
	// cache[v][i] is the latest label received from Neighbors(v)[i].
	cache [][]int64
}

// NewLPProgram returns a program instance sized for g.
func NewLPProgram(g *graph.Graph, rounds int) core.Program {
	n := g.NumVertices()
	p := &lpProgram{Rounds: rounds, cache: make([][]int64, n)}
	for v := int64(0); v < n; v++ {
		// Initial labels are the neighbor IDs themselves.
		p.cache[v] = append([]int64(nil), g.Neighbors(v)...)
	}
	return p
}

// InitialState implements core.Program: every vertex starts in its own
// community.
func (*lpProgram) InitialState(_ *graph.Graph, v int64) int64 { return v }

// PullCapable implements core.PullProgram: label propagation broadcasts
// only via SendToNeighbors and at most once per vertex per superstep, so
// direction-optimizing supersteps may execute its exchanges as pull
// sweeps.
func (*lpProgram) PullCapable() bool { return true }

// Compute implements core.Program.
func (p *lpProgram) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		// Everyone knows everyone's initial label already (it is the
		// vertex ID); kick off the first exchange by recomputing from the
		// initial cache below, without a broadcast round.
	}
	nbr := v.Neighbors()
	cache := p.cache[v.ID()]
	for _, m := range v.Messages() {
		sender := m >> 32
		label := m & 0xffffffff
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= sender })
		if i < len(nbr) && nbr[i] == sender {
			cache[i] = label
		}
		v.Charge(4, 4, 1)
	}
	if len(cache) > 0 {
		counts := make(map[int64]int64, len(cache))
		for _, l := range cache {
			counts[l]++
		}
		v.Charge(int64(len(cache)), int64(len(cache)), 0)
		best := graphct.PluralityLabel(counts, v.State(), v.Superstep())
		if best != v.State() {
			v.SetState(best)
			if v.Superstep() < p.Rounds {
				v.SendToNeighbors(v.ID()<<32 | best)
			}
		}
	}
	v.VoteToHalt()
}

// LPResult is the output of LabelPropagation.
type LPResult struct {
	// Labels assigns each vertex a community label.
	Labels []int64
	// Communities is the number of distinct labels.
	Communities int64
	// Supersteps executed.
	Supersteps int
}

// LabelPropagation runs BSP community detection for at most rounds
// propagation supersteps (0 selects 30). The graph must have sorted
// adjacency.
func LabelPropagation(g *graph.Graph, rounds int, rec *trace.Recorder, opts ...core.Option) (*LPResult, error) {
	if rounds <= 0 {
		rounds = 30
	}
	if !g.SortedAdjacency() {
		panic("bspalg: LabelPropagation requires sorted adjacency")
	}
	cfg := core.Config{
		Graph:         g,
		Program:       NewLPProgram(g, rounds),
		Recorder:      rec,
		MaxSupersteps: rounds + 2,
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &LPResult{
		Labels:      res.States,
		Communities: graph.CountComponents(res.States),
		Supersteps:  res.Supersteps,
	}, nil
}
