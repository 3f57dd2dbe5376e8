package bspalg

import (
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

// misProgram is Luby's maximal independent set as a vertex program — the
// standard demonstration that randomized symmetry-breaking fits the BSP
// model (the Pregel paper's matching example uses the same trick). Rounds
// alternate two supersteps:
//
//	select phase: every undecided vertex draws a deterministic pseudo-
//	random priority for the round and sends it to its undecided
//	neighbors;
//
//	resolve phase: a vertex whose priority beat every received priority
//	joins the set and notifies its neighbors, which become excluded.
//
// States: misUndecided, misIn, misOut.
const (
	misUndecided = int64(0)
	misIn        = int64(1)
	misOut       = int64(2)
)

// misProgram implements core.Program.
type misProgram struct {
	// Seed makes the per-round priorities deterministic.
	Seed uint64
}

// InitialState implements core.Program.
func (misProgram) InitialState(*graph.Graph, int64) int64 { return misUndecided }

// priority derives the vertex's priority for a round; ties are broken by
// ID because Mix64 is injective over (v, round) pairs only with high
// probability, so the low bits carry the ID.
func (p misProgram) priority(v int64, round int) int64 {
	h := rng.Mix64(uint64(v)*0x9e3779b97f4a7c15 ^ uint64(round)*0xbf58476d1ce4e5b9 ^ p.Seed)
	// Positive value; fold the vertex ID into the low bits for total order.
	return int64((h>>16)&0x7fffffffffff)<<16 | (v & 0xffff)
}

// Compute implements core.Program.
func (p misProgram) Compute(v *core.VertexContext) {
	round := v.Superstep() / 2
	if v.Superstep()%2 == 0 {
		// Select phase. Winner notifications from the previous round's
		// resolve phase arrive here: a notified vertex is excluded before
		// it bids again.
		for _, m := range v.Messages() {
			if m < 0 && v.State() == misUndecided {
				v.SetState(misOut)
			}
		}
		if v.State() != misUndecided {
			v.VoteToHalt()
			return
		}
		v.SendToNeighbors(p.priority(v.ID(), round))
		if v.Degree() == 0 {
			// Isolated vertices join immediately.
			v.SetState(misIn)
		}
		// Stay awake for the resolve phase even if no messages arrive
		// (all neighbors may already be decided).
		return
	}
	// Resolve phase.
	switch v.State() {
	case misIn:
		v.VoteToHalt()
		return
	case misOut:
		v.VoteToHalt()
		return
	}
	mine := p.priority(v.ID(), round)
	won := true
	for _, m := range v.Messages() {
		// Winner notifications are encoded as negative values.
		if m < 0 {
			v.SetState(misOut)
			v.VoteToHalt()
			return
		}
		if m > mine {
			won = false
		}
	}
	if won {
		v.SetState(misIn)
		v.SendToNeighbors(-1)
		v.VoteToHalt()
		return
	}
	// Lost this round: stay undecided and awake for the next select phase.
}

// MISResult is the output of MaximalIndependentSet.
type MISResult struct {
	// InSet marks the members of the maximal independent set.
	InSet []bool
	// Rounds is the number of Luby rounds (2 supersteps each).
	Rounds int
	// Supersteps executed.
	Supersteps int
}

// MaximalIndependentSet computes an MIS with Luby's algorithm on the BSP
// engine. The result is deterministic for a given seed.
func MaximalIndependentSet(g *graph.Graph, seed uint64, rec *trace.Recorder, opts ...core.Option) (*MISResult, error) {
	cfg := core.Config{
		Graph:    g,
		Program:  misProgram{Seed: seed},
		Recorder: rec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &MISResult{
		InSet:      make([]bool, len(res.States)),
		Supersteps: res.Supersteps,
		Rounds:     (res.Supersteps + 1) / 2,
	}
	for v, s := range res.States {
		out.InSet[v] = s == misIn
	}
	return out, nil
}

// ValidateMIS reports whether in marks an independent set that is maximal.
func ValidateMIS(g *graph.Graph, in []bool) bool {
	n := g.NumVertices()
	for v := int64(0); v < n; v++ {
		if in[v] {
			// Independence: no two adjacent members.
			for _, w := range g.Neighbors(v) {
				if in[w] && w != v {
					return false
				}
			}
			continue
		}
		// Maximality: every non-member has a member neighbor.
		covered := false
		for _, w := range g.Neighbors(v) {
			if in[w] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
