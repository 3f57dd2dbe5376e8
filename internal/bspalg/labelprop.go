package bspalg

import (
	"fmt"

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
	// The latest label received from each neighbour.
	nbrCache
}

// NewLPProgram returns a program instance sized for g. Initial labels are
// the vertex IDs, so every cached neighbour label starts as its ID.
func NewLPProgram(g *graph.Graph, rounds int) core.Program {
	return &lpProgram{Rounds: rounds, nbrCache: newNbrCache(g, func(w int64) int64 { return w })}
}

// ProgramName is the program's checkpoint fingerprint identity: its type
// and the round cap, without the cache.
func (p *lpProgram) ProgramName() string { return fmt.Sprintf("%T{Rounds:%d}", p, p.Rounds) }

// InitialState implements core.Program: every vertex starts in its own
// community.
func (*lpProgram) InitialState(_ *graph.Graph, v int64) int64 { return v }

// Compute implements core.Program.
func (p *lpProgram) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		// Everyone knows everyone's initial label already (it is the
		// vertex ID); kick off the first exchange by recomputing from the
		// initial cache below, without a broadcast round.
	}
	// Messages arrive in ascending sender order on every delivery path (the
	// broadcasters' order, or a pull's walk of the ascending neighbor list),
	// so one cursor over nbr finds every sender's slot.
	nbr := v.Neighbors()
	cache := p.of(v.ID())
	i := 0
	for _, m := range v.Messages() {
		sender := m >> 32
		for i < len(nbr) && nbr[i] < sender {
			i++
		}
		if i < len(nbr) && nbr[i] == sender {
			cache[i] = m & 0xffffffff
		}
		v.Charge(4, 4, 1)
	}
	if len(cache) > 0 {
		v.Charge(int64(len(cache)), int64(len(cache)), 0)
		best := graphct.PluralityLabel(cache, v.State(), v.Superstep())
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
// propagation supersteps (0 selects 30).
func LabelPropagation(g *graph.Graph, rounds int, rec *trace.Recorder, opts ...core.Option) (*LPResult, error) {
	if rounds <= 0 {
		rounds = 30
	}
	res, err := run(core.Config{
		Graph:         g,
		Program:       NewLPProgram(g, rounds),
		Recorder:      rec,
		MaxSupersteps: rounds + 2,
	}, opts)
	if err != nil {
		return nil, err
	}
	return &LPResult{
		Labels:      res.States,
		Communities: graph.CountComponents(res.States),
		Supersteps:  res.Supersteps,
	}, nil
}
