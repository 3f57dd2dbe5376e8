package experiments

import (
	"fmt"
	"io"
	"strings"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
	"graphxmt/internal/graph500"
)

// extensionsResult applies Table I's methodology to the algorithm pairs
// beyond the paper's three: k-core decomposition, label-propagation
// communities, betweenness centrality, and weighted SSSP, each implemented
// in both programming models. It tests whether the paper's conclusion —
// BSP within roughly an order of magnitude of hand-tuned shared memory —
// generalizes past its benchmark set.
type extensionsResult struct {
	Rows []pairRow
	// Steps[i] is extensionPairs[i]'s BSP supersteps and shared-memory
	// iterations; the pairs with a gap name print them.
	Steps [][2]int
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

// extensions runs the four extension pairs on g: BSP label propagation for
// 40 rounds, betweenness from 8 sources sampled by s.Seed in both models,
// and SSSP on a weighted copy of g.
func extensions(g *graph.Graph, s Setup) (*extensionsResult, error) {
	rows, steps, err := s.runPairs(g, extensionPairs, bspalg.Params{Rounds: 40, Samples: 8, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	return &extensionsResult{rows, steps}, nil
}

// render prints the extensions table.
func (r *extensionsResult) render(w io.Writer) {
	fmt.Fprintln(w, "EXTENSIONS: Table I methodology on algorithm pairs beyond the paper's three")
	fmt.Fprintf(w, "%-24s %12s %12s %8s\n", "Algorithm", "BSP (s)", "GraphCT (s)", "Ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %12.4f %12.4f %7.1f:1\n", row.Algorithm, row.BSP, row.GraphCT, row.Ratio)
	}
	fmt.Fprintln(w, "iteration gaps (BSP supersteps vs shared-memory rounds):")
	for i, pr := range extensionPairs {
		if pr.gap != "" {
			fmt.Fprintf(w, "  %-20s %d vs %d\n", pr.gap, r.Steps[i][0], r.Steps[i][1])
		}
	}
}

func (r *extensionsResult) csv() ([]string, [][]string) { return pairCSV(r.Rows) }

// graph500Result is the Graph500-style run in each of graph500Models.
type graph500Result [2]*graph500.Result

var graph500Models = [2]string{"GraphCT", "BSP"}

// graph500Pair runs 16 Graph500-style searches in each model, the BSP ones
// under s's supervisor and direction.
func graph500Pair(g *graph.Graph, s Setup) (*graph500Result, error) {
	var r graph500Result
	for i, bsp := range []bool{false, true} {
		res, err := graph500.RunOnGraph(g, graph500.Config{
			SearchKeys: 16, Seed: s.Seed, Procs: s.Procs, BSP: bsp,
		}, s.Engine...)
		if err != nil {
			return nil, fmt.Errorf("experiments: graph500 %s: %w", strings.ToLower(graph500Models[i]), err)
		}
		r[i] = res
	}
	return &r, nil
}

func (r *graph500Result) render(w io.Writer) {
	for i, res := range r {
		fmt.Fprintf(w, "GRAPH500-style (%s): %d/%d searches validated; TEPS min %.3g / median %.3g / harmonic %.3g / max %.3g\n",
			graph500Models[i], res.Validated, len(res.Keys), res.MinTEPS, res.MedianTEPS, res.HarmonicMeanTEPS, res.MaxTEPS)
	}
}

func (r *graph500Result) csv() ([]string, [][]string) {
	var kv []any
	for i, res := range r {
		m := strings.ToLower(graph500Models[i]) + "_"
		kv = append(kv, m+"validated", res.Validated, m+"searches", len(res.Keys), m+"min_teps", res.MinTEPS,
			m+"median_teps", res.MedianTEPS, m+"harmonic_teps", res.HarmonicMeanTEPS, m+"max_teps", res.MaxTEPS)
	}
	return nameValueCSV(kv...)
}
