package experiments

import (
	"fmt"
	"io"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// ExtensionsResult applies Table I's methodology to the algorithm pairs
// beyond the paper's three: k-core decomposition, label-propagation
// communities, betweenness centrality, and weighted SSSP, each implemented
// in both programming models. It tests whether the paper's conclusion —
// BSP within roughly an order of magnitude of hand-tuned shared memory —
// generalizes past its benchmark set.
type ExtensionsResult struct {
	Rows []Table1Row
	// IterationGaps records BSP supersteps vs shared-memory iterations
	// where the pair exposes them (kcore, lp, sssp).
	IterationGaps map[string][2]int
}

// Extensions runs the four extension pairs on g. SSSP runs on a weighted
// copy of g (unit-range random weights derived from s.Seed).
func Extensions(g *graph.Graph, s Setup) (*ExtensionsResult, error) {
	s = s.withDefaults()
	res := &ExtensionsResult{IterationGaps: map[string][2]int{}}

	// k-core.
	bspRec := trace.NewRecorder()
	bspKC, err := bspalg.KCore(g, bspRec)
	if err != nil {
		return nil, err
	}
	ctRec := trace.NewRecorder()
	ctKC := graphct.KCore(g, ctRec)
	for v := range ctKC.Core {
		if bspKC.Core[v] != ctKC.Core[v] {
			return nil, fmt.Errorf("experiments: kcore mismatch at vertex %d", v)
		}
	}
	res.Rows = append(res.Rows, row("k-core decomposition",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))
	res.IterationGaps["k-core"] = [2]int{bspKC.Supersteps, ctKC.Rounds}

	// Label propagation. Results differ legitimately between the models
	// (synchronous vs in-place sweeps); quality is compared by modularity
	// in the communities example, so only time is tabulated here.
	bspRec = trace.NewRecorder()
	bspLP, err := bspalg.LabelPropagation(g, 40, bspRec, s.engineOpts()...)
	if err != nil {
		return nil, err
	}
	ctRec = trace.NewRecorder()
	ctLP := graphct.LabelPropagation(g, graphct.CommunityOptions{}, ctRec)
	res.Rows = append(res.Rows, row("label propagation",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))
	res.IterationGaps["label propagation"] = [2]int{bspLP.Supersteps, ctLP.Iterations}

	// Betweenness (sampled; same sources both sides via the same seed).
	const bcSamples = 8
	bspRec = trace.NewRecorder()
	if _, err := bspalg.Betweenness(g, bspalg.BetweennessOptions{Samples: bcSamples, Seed: s.Seed}, bspRec); err != nil {
		return nil, err
	}
	ctRec = trace.NewRecorder()
	graphct.Betweenness(g, graphct.BetweennessOptions{Samples: bcSamples, Seed: s.Seed}, ctRec)
	res.Rows = append(res.Rows, row("betweenness (sampled)",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))

	// SSSP over a weighted copy.
	edges := g.EdgeList()
	weights := gen.UniformWeights(len(edges), 10, s.Seed)
	wg, err := graph.Build(g.NumVertices(), edges, graph.BuildOptions{
		SortAdjacency: true, Weights: weights})
	if err != nil {
		return nil, err
	}
	src := wg.MaxDegreeVertex()
	bspRec = trace.NewRecorder()
	bspSP, err := bspalg.SSSP(wg, src, bspRec)
	if err != nil {
		return nil, err
	}
	ctRec = trace.NewRecorder()
	ctSP := graphct.BellmanFordSSSP(wg, src, ctRec)
	for v := range ctSP.Dist {
		if bspSP.Dist[v] != ctSP.Dist[v] {
			return nil, fmt.Errorf("experiments: sssp mismatch at vertex %d", v)
		}
	}
	res.Rows = append(res.Rows, row("SSSP (weighted)",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))
	res.IterationGaps["SSSP"] = [2]int{bspSP.Supersteps, ctSP.Iterations}

	return res, nil
}

// RenderExtensions prints the extensions table.
func RenderExtensions(w io.Writer, r *ExtensionsResult, procs int) {
	fmt.Fprintln(w, "EXTENSIONS: Table I methodology on algorithm pairs beyond the paper's three")
	fmt.Fprintf(w, "%-24s %12s %12s %8s\n", "Algorithm", "BSP (s)", "GraphCT (s)", "Ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %12.4f %12.4f %7.1f:1\n", row.Algorithm, row.BSP, row.GraphCT, row.Ratio)
	}
	fmt.Fprintln(w, "iteration gaps (BSP supersteps vs shared-memory rounds):")
	for _, name := range []string{"k-core", "label propagation", "SSSP"} {
		if gap, ok := r.IterationGaps[name]; ok {
			fmt.Fprintf(w, "  %-20s %d vs %d\n", name, gap[0], gap[1])
		}
	}
	_ = procs
}
