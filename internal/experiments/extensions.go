package experiments

import (
	"fmt"
	"io"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
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

// extensionPairs are the four pairs beyond the paper's three. Label
// propagation's answers differ legitimately between the models
// (synchronous vs in-place sweeps), so only its time is compared; its
// quality is compared by modularity in the communities example.
var extensionPairs = []pair{
	{"k-core decomposition", "kcore", "kcore", "k-core"},
	{"label propagation", "lp", "lp", "label propagation"},
	{"betweenness (sampled)", "bc", "bc", ""},
	{"SSSP (weighted)", "sssp", "sssp", "SSSP"},
}

// Extensions runs the four extension pairs on g: BSP label propagation for
// 40 rounds, betweenness from 8 sources sampled by s.Seed in both models,
// and SSSP on a weighted copy of g.
func Extensions(g *graph.Graph, s Setup) (*ExtensionsResult, error) {
	s = s.withDefaults()
	rows, steps, err := s.runPairs(g, extensionPairs, bspalg.Params{Rounds: 40, Samples: 8, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	res := &ExtensionsResult{Rows: rows, IterationGaps: map[string][2]int{}}
	for i, pr := range extensionPairs {
		if pr.gap != "" {
			res.IterationGaps[pr.gap] = steps[i]
		}
	}
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
