// Package bspalg implements the paper's vertex-centric BSP algorithms on
// the core engine: connected components (Algorithm 1), breadth-first
// search (Algorithm 2) and triangle counting (Algorithm 3), plus the
// natural extensions a Pregel-style framework ships with (SSSP, PageRank)
// and a streaming triangle-counting evaluator for graphs whose candidate
// messages do not fit in memory. Each is a row of the kernel table
// (kernels.go), beside its GraphCT twin; Lookup finds a row by name.
package bspalg

import (
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// CCProgram is Algorithm 1: BSP connected components by minimum-label
// flooding, "as in the Shiloach-Vishkin approach". Each vertex's state is
// its component label, initially itself. On every superstep an active
// vertex adopts the smallest label among its messages and, if the label
// changed (or on superstep 0), floods it to all neighbors. Labels move one
// hop per superstep — the stale-data property that makes the BSP variant
// need at least twice the iterations of the shared-memory kernel.
type CCProgram struct{}

// InitialState implements core.Program: each vertex starts in its own
// component.
func (CCProgram) InitialState(_ *graph.Graph, v int64) int64 { return v }

// Compute implements core.Program.
func (CCProgram) Compute(v *core.VertexContext) {
	label := v.State()
	changed := false
	for _, m := range v.Messages() {
		if m < label {
			label = m
			changed = true
		}
	}
	if changed {
		v.SetState(label)
	}
	if v.Superstep() == 0 || changed {
		v.SendToNeighbors(label)
	}
	v.VoteToHalt()
}

// CCResult is the output of ConnectedComponents.
type CCResult struct {
	// Labels maps each vertex to its component label (the smallest vertex
	// ID in its component).
	Labels []int64
	// Supersteps is the number of supersteps until convergence.
	Supersteps int
	// ActivePerStep and MessagesPerStep expose the engine's per-superstep
	// counters (the quantities behind the paper's Figure 1 discussion).
	ActivePerStep   []int64
	MessagesPerStep []int64
}

// ConnectedComponents runs Algorithm 1 to convergence.
func ConnectedComponents(g *graph.Graph, rec *trace.Recorder, opts ...core.Option) (*CCResult, error) {
	res, err := run(core.Config{
		Graph:         g,
		Program:       CCProgram{},
		Recorder:      rec,
		MaxSupersteps: waveSupersteps(g),
	}, opts)
	if err != nil {
		return nil, err
	}
	return &CCResult{
		Labels:          res.States,
		Supersteps:      res.Supersteps,
		ActivePerStep:   res.ActivePerStep,
		MessagesPerStep: res.MessagesPerStep,
	}, nil
}
