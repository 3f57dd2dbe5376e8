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
// The decision is a pure function of logical counters (frontier incident
// edges vs. unvisited incident edges, both from the CSR degree prefix
// sum), never of the worker count or any physical-delivery artifact, so
// the push/pull sequence — and therefore the Result and trace profile —
// is bit-identical at any worker count, under either broadcast treatment
// (records, or the tests' per-edge sends), and across checkpoint/resume.
// The sequence is recorded per superstep in Result.DirectionPerStep and
// persisted in checkpoints (the per-step decisions and the visited
// bitmap) so a resumed run replays it exactly.
//
// Logical message counting is unchanged in either direction: a broadcast
// still costs one logical message per edge (the paper-fidelity count the
// cost model charges), and SentPhysical is the record count under either;
// only host time shows the pull win.

import "graphxmt/internal/graph"

// DirectionMode is a superstep's push/pull decision, as
// Result.DirectionPerStep records it. The engine decides every superstep
// itself (dirState.decide); the zero value, DirAuto, is the tests' name
// for that (Config.direction).
type DirectionMode int

const (
	// DirAuto is the engine deciding: push until the frontier's
	// incident-edge count crosses the Beamer-style threshold, then pull.
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

// Beamer-style threshold constants (α and 1/γ in the BFS
// direction-optimization literature, tuned for this engine's record-based
// pull): switch to pull when the frontier's incident edges are within a
// factor dirAlpha of the unvisited incident edges AND cover at least
// 1/dirGamma of the total adjacency. The second gate keeps the O(edges)
// pull sweep off small frontiers where the O(frontier·degree) push is
// cheaper; the first catches the moment most traffic would land on
// already-visited vertices.
const (
	dirAlpha int64 = 14
	dirGamma int64 = 4
)

// dirState is the per-run direction-decision state.
type dirState struct {
	// mode is Config.direction: DirAuto, or the tests' forced push or pull.
	mode DirectionMode

	// totalEdges is g.NumEdges(); visitedEdges accumulates the
	// degree sum of visited vertices (a vertex is visited once it has
	// received a message or sent one). Both are logical quantities
	// derived from the CSR degree prefix sum — never from delivery
	// internals — so the decision below is worker- and
	// treatment-independent.
	totalEdges   int64
	visited      []uint64 // one bit per vertex, words owned as halted's are
	visitedEdges int64
}

// startDir opens the direction layer for a run.
func startDir(cfg *Config, g *graph.Graph) *dirState {
	return &dirState{
		mode:       cfg.direction,
		totalEdges: g.NumEdges(),
		visited:    make([]uint64, (g.NumVertices()+63)/64),
	}
}

// decide returns the direction for the superstep whose compute sweep just
// finished, given the frontier's broadcast-incident-edge count and the
// unicast message count. Pull requires a pullable superstep: pure
// broadcast, with a broadcast to pull. Delivery still pushes one whose
// records cannot be pulled (fillBcastLookaside). How dense the frontier
// is, not how big, is what makes a pull pay. Everything read here is a
// logical counter or run-constant, keeping the decision worker-count- and
// treatment-independent.
func (ds *dirState) decide(bcastEdges, unicast int64) DirectionMode {
	if ds.mode == DirPush || unicast != 0 || bcastEdges == 0 {
		return DirPush
	}
	if ds.mode == DirPull {
		return DirPull
	}
	unvisited := ds.totalEdges - ds.visitedEdges
	if bcastEdges*dirAlpha >= unvisited && bcastEdges*dirGamma >= ds.totalEdges {
		return DirPull
	}
	return DirPush
}
