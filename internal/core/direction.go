package core

// Direction-optimizing supersteps: the Beamer-style push/pull decision
// layer. Every superstep the engine either pushes (frontier vertices
// scatter their broadcasts along out-edges — the classic BSP delivery) or
// pulls (the frontier's broadcast records are stamped into a lookaside and,
// in the next compute sweep, every vertex walks its own adjacency reading
// them from it — chunkState.gather). On scale-free graphs the
// pull sweep turns the paper's Figure-2 message excess — every frontier
// vertex flooding all neighbors, visited or not — into one O(edges) read
// pass with O(frontier) materialized records.
//
// The decision is made here for every program, from the superstep's
// traffic alone: a superstep may pull when it is pure broadcast (no Send;
// pullable), and delivery pulls it only if each source left at most one
// record or a combiner folds them (fillBcastLookaside) — otherwise it
// pushes under the recorded decision.
//
// The decision is a pure function of logical counters — the frontier's
// incident edges, from the CSR degree prefix sum, against the graph's arcs —
// never of the worker count or any physical-delivery artifact, so the
// push/pull sequence — and therefore the Result and trace profile — is
// bit-identical at any worker count, under either broadcast treatment
// (records, or the tests' per-edge sends), and across checkpoint/resume.
// The sequence is recorded per superstep in Result.DirectionPerStep and
// persisted in checkpoints, so a resumed run re-delivers its boundary
// under the decision the original run made.
//
// Logical message counting is unchanged in either direction: a broadcast
// still costs one logical message per edge (the paper-fidelity count the
// cost model charges), and SentPhysical is the record count under either;
// only host time shows the pull win.

// DirectionMode is a superstep's push/pull decision, as
// Result.DirectionPerStep records it. The engine decides every superstep
// itself (decide); the zero value, DirAuto, is the tests' name
// for that (Config.direction).
type DirectionMode int

const (
	// DirAuto is the engine deciding: pull a superstep whose frontier
	// covers at least 1/dirGamma of the adjacency, push the rest.
	DirAuto DirectionMode = iota
	// DirPush is a push scatter.
	DirPush
	// DirPull is a pull sweep.
	DirPull
)

// String returns "auto", "push" or "pull".
func (m DirectionMode) String() string {
	switch m {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return "auto"
	}
}

// dirGamma is the frontier density at which a pull pays (1/γ in the
// Beamer et al. direction-optimization literature, tuned for this engine's
// record-based pull): a superstep pulls when its frontier's incident edges
// cover at least 1/dirGamma of the adjacency. Below that the O(edges) pull
// sweep costs more than the O(frontier·degree) push.
const dirGamma int64 = 4

// decide returns the direction for the superstep whose compute sweep just
// finished: mode is Config.direction, bcastEdges the frontier's
// broadcast-incident edges, unicast the superstep's Sends and arcs
// g.NumEdges(). Pull requires a pullable superstep: pure broadcast, with a
// broadcast to pull. Delivery still pushes one whose records cannot be
// pulled (fillBcastLookaside). How dense the frontier is, not how big, is
// what makes a pull pay. Everything read here is a logical counter or
// run-constant, keeping the decision worker-count- and
// treatment-independent.
func decide(mode DirectionMode, bcastEdges, unicast, arcs int64) DirectionMode {
	if mode == DirPush || unicast != 0 || bcastEdges == 0 {
		return DirPush
	}
	if mode == DirPull || bcastEdges*dirGamma >= arcs {
		return DirPull
	}
	return DirPush
}
