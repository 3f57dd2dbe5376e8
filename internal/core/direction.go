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
// The decision is a pure function of logical counters (frontier incident
// edges vs. unvisited incident edges, both from the CSR degree prefix
// sum), never of the worker count or any physical-delivery artifact, so
// the push/pull sequence — and therefore the Result and trace profile —
// is bit-identical at any worker count, under either broadcast treatment
// (records, or the tests' per-edge sends), and across checkpoint/resume.
// The sequence is recorded per superstep in Result.DirectionPerStep and
// persisted in checkpoints (fingerprint mode + per-step decisions) so a
// resumed run replays it exactly.
//
// Logical message counting is unchanged in either direction: a broadcast
// still costs one logical message per edge (the paper-fidelity count the
// cost model charges), and SentPhysical is the record count under either;
// only host time shows the pull win.

import "graphxmt/internal/graph"

// DirectionMode selects how the engine executes broadcast-heavy
// supersteps. The zero value is DirAuto.
type DirectionMode int

const (
	// DirAuto enables the adaptive heuristic: push until the frontier's
	// incident-edge count crosses the Beamer-style threshold, then pull.
	// For programs that are not pull-capable, DirAuto is the legacy
	// engine — no direction state is kept at all.
	DirAuto DirectionMode = iota
	// DirPush forces push scatter every superstep — the A/B control.
	DirPush
	// DirPull forces a pull sweep on every eligible superstep (pure
	// broadcast, at least pullMinEdges messages); ineligible supersteps
	// still push.
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

// WithDirection selects the direction mode for a run (see DirectionMode).
func WithDirection(m DirectionMode) Option {
	return func(cfg *Config) { cfg.Direction = m }
}

// ParseDirection maps a -direction flag value ("auto", "push" or "pull")
// to its DirectionMode — the shared CLI validation. Unknown values return
// ok == false.
func ParseDirection(s string) (DirectionMode, bool) {
	switch s {
	case "auto":
		return DirAuto, true
	case "push":
		return DirPush, true
	case "pull":
		return DirPull, true
	}
	return DirAuto, false
}

// PullProgram is the opt-in surface for direction optimization. A vertex
// program that implements it with PullCapable() == true declares the
// contract the pull sweep needs: the program broadcasts only via
// SendToNeighbors (never Send), and at most once per vertex per
// superstep. Programs that also Send on some supersteps are still safe —
// a superstep with any unicast traffic is never pulled — but only pure
// broadcast algorithms benefit.
type PullProgram interface {
	PullCapable() bool
}

// pullCapable reports whether p opts into direction optimization.
func pullCapable(p Program) bool {
	pp, ok := p.(PullProgram)
	return ok && pp.PullCapable()
}

// DirectionError is returned by Run when Config.Direction requires pull
// capability the program does not declare, and by the CLIs when -direction
// names a mode the selected algorithm cannot honor.
type DirectionError struct {
	Program string        // program name (ProgramNameOf)
	Mode    DirectionMode // the requested mode
}

func (e *DirectionError) Error() string {
	return "core: direction " + e.Mode.String() + ": program " + e.Program +
		" does not implement PullProgram (pull-capable)"
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

// dirState is the per-run direction-decision state, nil-gated like
// *ckptRun and *obsRun: a nil *dirState is the legacy engine. Allocated
// iff the program is pull-capable or a non-auto mode was requested.
type dirState struct {
	mode   DirectionMode
	pullOK bool // graph+program admit a pull sweep at all

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

// startDir opens the direction layer for a run, or returns (nil, nil) for
// the legacy engine. A requested DirPull with a program that is not
// pull-capable is a typed *DirectionError; DirPush is honored for any
// program (it is the A/B control and never needs pull machinery beyond
// the decision record).
func startDir(cfg *Config, g *graph.Graph) (*dirState, error) {
	capable := pullCapable(cfg.Program)
	if cfg.Direction < DirAuto || cfg.Direction > DirPull {
		return nil, &DirectionError{Program: ProgramNameOf(cfg.Program), Mode: cfg.Direction}
	}
	if !capable {
		if cfg.Direction == DirPull {
			return nil, &DirectionError{Program: ProgramNameOf(cfg.Program), Mode: cfg.Direction}
		}
		if cfg.Direction == DirAuto {
			return nil, nil
		}
	}
	ds := &dirState{
		mode:       cfg.Direction,
		totalEdges: g.NumEdges(),
		visited:    make([]uint64, (g.NumVertices()+63)/64),
	}
	// The pull sweep reads broadcast records through each destination's
	// own adjacency, so it needs in-edges visible from out-edges
	// (undirected graph) and — without a combiner — sorted adjacency so
	// the pull-scatter inbox order equals the push send order exactly.
	ds.pullOK = capable && !g.Directed() &&
		(cfg.Combiner != nil || g.SortedAdjacency())
	return ds, nil
}

// decide returns the direction for the superstep whose compute sweep just
// finished, given the frontier's broadcast-incident-edge count and the
// unicast message count. Pull requires a pullable superstep (pure
// broadcast, and big enough). Everything read here is a logical counter or
// run-constant, keeping the decision worker-count- and
// treatment-independent.
func (ds *dirState) decide(bcastEdges, unicast int64) DirectionMode {
	if ds.mode == DirPush {
		return DirPush
	}
	if !(ds.pullOK && pullable(unicast, bcastEdges)) {
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
