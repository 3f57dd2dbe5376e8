package bspalg

import (
	"math"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// unreachable is the distance of vertices the search never reaches.
const unreachable = math.MaxInt64 / 2

// BFSProgram is Algorithm 2: BSP breadth-first search. Vertex state is the
// current distance from the source, initially "infinity". On superstep 0
// the source sets its distance to 0 and sends it to its neighbors; on
// later supersteps a vertex that improves its distance from a message
// (m+1 < D) adopts it and floods its new distance. A message goes to
// every neighbor of a frontier vertex — including already-visited ones,
// which simply discard it; that message excess over the true frontier is
// the algorithm's defining overhead (the paper's Figure 2).
type BFSProgram struct {
	// Source is the BFS root.
	Source int64
}

// InitialState implements core.Program.
func (p BFSProgram) InitialState(_ *graph.Graph, v int64) int64 {
	if v == p.Source {
		return 0
	}
	return unreachable
}

// Compute implements core.Program.
func (p BFSProgram) Compute(v *core.VertexContext) {
	d := v.State()
	changed := false
	for _, m := range v.Messages() {
		if m+1 < d {
			d = m + 1
			changed = true
		}
	}
	if changed {
		v.SetState(d)
	}
	if v.Superstep() == 0 {
		if v.ID() == p.Source {
			v.SendToNeighbors(0)
		}
	} else if changed {
		v.SendToNeighbors(d)
	}
	v.VoteToHalt()
}

// BFSResult is the output of BFS.
type BFSResult struct {
	// Dist holds hop distances from the source; -1 for unreachable
	// (normalized from the internal infinity).
	Dist []int64
	// Supersteps is the number of supersteps executed.
	Supersteps int
	// MessagesPerStep holds messages generated by each superstep — the
	// green series of the paper's Figure 2.
	MessagesPerStep []int64
	// FrontierPerStep holds the number of vertices that first adopted
	// their final distance in each superstep: the true frontier (the red
	// series of Figure 2). FrontierPerStep[s] is the number of vertices at
	// BFS level s.
	FrontierPerStep []int64
}

// BFS runs Algorithm 2 from the given source. Trailing options configure
// engine extras (checkpointing, resume, stop channels, budgets).
func BFS(g *graph.Graph, source int64, rec *trace.Recorder, opts ...core.Option) (*BFSResult, error) {
	res, err := run(core.Config{
		Graph:         g,
		Program:       BFSProgram{Source: source},
		Recorder:      rec,
		MaxSupersteps: waveSupersteps(g),
	}, opts)
	if err != nil {
		return nil, err
	}
	out := &BFSResult{
		Dist:            res.States,
		Supersteps:      res.Supersteps,
		MessagesPerStep: res.MessagesPerStep,
	}
	// Normalize infinity to -1 and recover per-level frontier sizes from
	// the final distances (level s vertices became frontier in superstep s).
	maxd := int64(-1)
	for i, d := range out.Dist {
		if d >= unreachable {
			out.Dist[i] = -1
		} else if d > maxd {
			maxd = d
		}
	}
	out.FrontierPerStep = make([]int64, maxd+1)
	for _, d := range out.Dist {
		if d >= 0 {
			out.FrontierPerStep[d]++
		}
	}
	return out, nil
}

// approxDiameter estimates the diameter with the double-sweep heuristic
// over the BSP BFS — the vertex-centric counterpart of
// graphct.ApproxDiameter, and another composition of the engine's
// primitives. It returns a lower bound that is exact on trees. Trailing
// engine options apply to every BFS sweep (retry/watchdog supervision;
// checkpoint/resume options are not supported across sweeps).
func approxDiameter(g *graph.Graph, start int64, sweeps int, rec *trace.Recorder, opts ...core.Option) (int64, error) {
	if sweeps <= 0 {
		sweeps = 4
	}
	n := g.NumVertices()
	if n == 0 || start < 0 || start >= n {
		return -1, nil
	}
	best := int64(-1)
	src := start
	for s := 0; s < sweeps; s++ {
		res, err := BFS(g, src, rec, opts...)
		if err != nil {
			return -1, err
		}
		var far, ecc int64 = src, -1
		for v := int64(0); v < n; v++ {
			if res.Dist[v] > ecc {
				ecc, far = res.Dist[v], v
			}
		}
		if ecc <= best {
			break
		}
		best = ecc
		src = far
	}
	return best, nil
}
