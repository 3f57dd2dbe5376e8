package bspalg

import (
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// ssspProgram is single-source shortest paths in the BSP model — the
// canonical Pregel example and the algorithm Kajdanowicz et al. use in the
// Giraph comparison the paper cites. Vertex state is the best known
// distance; a vertex that improves its distance relaxes all outgoing edges
// by sending dist + weight.
type ssspProgram struct {
	// Source is the root vertex.
	Source int64
}

// InitialState implements core.Program.
func (p ssspProgram) InitialState(_ *graph.Graph, v int64) int64 {
	if v == p.Source {
		return 0
	}
	return unreachable
}

// Compute implements core.Program.
func (p ssspProgram) Compute(v *core.VertexContext) {
	d := v.State()
	changed := false
	for _, m := range v.Messages() {
		if m < d {
			d = m
			changed = true
		}
	}
	if changed {
		v.SetState(d)
	}
	if (v.Superstep() == 0 && v.ID() == p.Source) || changed {
		nbr := v.Neighbors()
		wts := v.NeighborWeights()
		for i, n := range nbr {
			v.Send(n, d+wts[i])
		}
	}
	v.VoteToHalt()
}

// SSSPResult is the output of SSSP.
type SSSPResult struct {
	// Dist holds shortest-path distances; -1 for unreachable.
	Dist []int64
	// Supersteps is the superstep count until convergence.
	Supersteps int
	// MessagesPerStep holds relaxation messages per superstep.
	MessagesPerStep []int64
}

// SSSP runs BSP single-source shortest paths on a weighted graph with
// non-negative weights, using a min-combiner.
func SSSP(g *graph.Graph, source int64, rec *trace.Recorder, opts ...core.Option) (*SSSPResult, error) {
	if !g.Weighted() {
		panic("bspalg: SSSP requires a weighted graph")
	}
	cfg := core.Config{
		Graph:    g,
		Program:  ssspProgram{Source: source},
		Combiner: core.Min,
		Recorder: rec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &SSSPResult{
		Dist:            res.States,
		Supersteps:      res.Supersteps,
		MessagesPerStep: res.MessagesPerStep,
	}
	for i, d := range out.Dist {
		if d >= unreachable {
			out.Dist[i] = -1
		}
	}
	return out, nil
}

// ReferenceSSSP is a sequential Dijkstra used to verify the BSP program;
// -1 marks unreachable vertices. Weights must be non-negative.
func ReferenceSSSP(g *graph.Graph, source int64) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	if source < 0 || source >= n {
		return dist
	}
	// Binary-heap Dijkstra.
	type item struct {
		v, d int64
	}
	heapArr := []item{{source, 0}}
	push := func(it item) {
		heapArr = append(heapArr, it)
		i := len(heapArr) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heapArr[p].d <= heapArr[i].d {
				break
			}
			heapArr[p], heapArr[i] = heapArr[i], heapArr[p]
			i = p
		}
	}
	pop := func() item {
		top := heapArr[0]
		last := len(heapArr) - 1
		heapArr[0] = heapArr[last]
		heapArr = heapArr[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heapArr[l].d < heapArr[small].d {
				small = l
			}
			if r < last && heapArr[r].d < heapArr[small].d {
				small = r
			}
			if small == i {
				break
			}
			heapArr[i], heapArr[small] = heapArr[small], heapArr[i]
			i = small
		}
		return top
	}
	for len(heapArr) > 0 {
		it := pop()
		if dist[it.v] >= 0 {
			continue
		}
		dist[it.v] = it.d
		nbr := g.Neighbors(it.v)
		wts := g.NeighborWeights(it.v)
		for i, w := range nbr {
			if dist[w] < 0 {
				push(item{w, it.d + wts[i]})
			}
		}
	}
	return dist
}
