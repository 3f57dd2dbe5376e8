package bspalg

import (
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/rng"
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

// validateMIS reports whether the vertices in marks with 1 are an
// independent set that is maximal.
func validateMIS(g *graph.Graph, in []int64) bool {
	n := g.NumVertices()
	for v := int64(0); v < n; v++ {
		if in[v] == 1 {
			// Independence: no two adjacent members.
			for _, w := range g.Neighbors(v) {
				if in[w] == 1 && w != v {
					return false
				}
			}
			continue
		}
		// Maximality: every non-member has a member neighbor.
		covered := false
		for _, w := range g.Neighbors(v) {
			if in[w] == 1 {
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
