// Command graphct runs the shared-memory graph kernels (the paper's
// baseline) as a workflow over a stored graph, in the spirit of GraphCT's
// function-call workflows: load once, run a comma-separated list of
// kernels, print results and simulated Cray XMT times.
//
// Usage:
//
//	graphct -g graph.gxmt -kernels degrees,cc,sv,bfs,tc,ccoef,kcore,pagerank,bc,stcon,lp,diameter \
//	        [-src -1] [-dst 0] [-procs 128] [-samples 16] [-workers N]
//	        [-obs-format report|jsonl|chrome] [-obs-out trace.json] [-pprof addr|file]
//
// The graph file's format is detected from its content, whatever its name:
// the CSR1 or CSR2 snapshot (either gzip-wrapped), DIMACS or an edge list.
// The kernels run on the flat adjacency. The -obs-* flags export host
// runtime observability for each kernel's top-level phases (see
// docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

func main() {
	path := flag.String("g", "", "graph file (required)")
	kernels := flag.String("kernels", "degrees,cc", "comma-separated kernels: degrees, cc, sv, bfs, tc, ccoef, kcore, pagerank, bc, stcon, lp, diameter")
	src := flag.Int64("src", -1, "bfs/stcon source (-1 = max-degree vertex)")
	dst := flag.Int64("dst", 0, "stcon target")
	procs := flag.Int("procs", 128, "simulated processors")
	samples := flag.Int("samples", 16, "betweenness sample count (0 = exact)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *path == "" {
		usage("-g is required")
	}
	if *procs <= 0 {
		usage("-procs must be > 0, got %d", *procs)
	}
	if *samples < 0 {
		usage("-samples must be >= 0 (0 = exact), got %d", *samples)
	}
	if *src < -1 {
		usage("-src must be a vertex ID or -1 for max-degree, got %d", *src)
	}
	if *dst < 0 {
		usage("-dst must be a vertex ID, got %d", *dst)
	}
	sess, err := obsFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	// A CSR2 file is mmap'd and decoded to flat adjacency: the kernels call
	// Neighbors in their hot loops, which allocates per call on a compressed
	// graph. The closer outlives every use of the graph.
	g, closer, err := graphio.Open(*path)
	if err != nil {
		fatal(err)
	}
	defer closer.Close()
	if g, err = graph.WithRep(g, graph.RepFlat); err != nil {
		fatal(err)
	}
	fmt.Println("loaded", g)

	model := machine.NewAnalytic(machine.DefaultConfig())
	source := *src
	if source < 0 {
		source = g.MaxDegreeVertex()
	}
	for _, k := range strings.Split(*kernels, ",") {
		k = strings.TrimSpace(k)
		usesSrc, usesDst := k == "bfs" || k == "diameter" || k == "stcon", k == "stcon"
		if (usesSrc && source >= g.NumVertices()) || (usesDst && *dst >= g.NumVertices()) {
			usage("-src/-dst out of range [0,%d)", g.NumVertices())
		}
	}

	for _, k := range strings.Split(*kernels, ",") {
		rec := trace.NewRecorder()
		sess.Attach(rec, g.NumVertices(), g.NumEdges())
		switch strings.TrimSpace(k) {
		case "degrees":
			s := graphct.Degrees(g, rec)
			fmt.Printf("[degrees] min=%d max=%d mean=%.2f median=%d p99=%d isolated=%d gini=%.3f assortativity=%.3f\n",
				s.Min, s.Max, s.Mean, s.Median, s.P99, s.Isolated, s.GiniIndex,
				graphct.Assortativity(g, rec))
		case "cc":
			res := graphct.ConnectedComponents(g, rec)
			sizes, largest := graphct.ComponentSizes(res.Labels)
			fmt.Printf("[cc] %d components, largest %d vertices, %d iterations\n",
				len(sizes), largest, res.Iterations)
		case "bfs":
			res := graphct.BFS(g, source, rec)
			reached := int64(0)
			for _, f := range res.FrontierSizes {
				reached += f
			}
			fmt.Printf("[bfs] source=%d levels=%d reached=%d frontiers=%v\n",
				source, res.Levels, reached, res.FrontierSizes)
		case "tc":
			res := graphct.Triangles(g, rec)
			fmt.Printf("[tc] triangles=%d writes=%d merge-steps=%d\n",
				res.Count, res.Writes, res.CompareOps)
		case "ccoef":
			res := graphct.ClusteringCoefficients(g, rec)
			fmt.Printf("[ccoef] triangles=%d global=%.4f\n", res.Triangles, res.Global)
		case "kcore":
			res := graphct.KCore(g, rec)
			fmt.Printf("[kcore] degeneracy=%d rounds=%d\n", res.MaxCore, res.Rounds)
		case "pagerank":
			res := graphct.PageRank(g, graphct.PageRankOptions{}, rec)
			fmt.Printf("[pagerank] iterations=%d converged=%v top=%v\n",
				res.Iterations, res.Converged, topK(res.Rank, 5))
		case "bc":
			res := graphct.Betweenness(g, graphct.BetweennessOptions{Samples: *samples, Seed: 7}, rec)
			fmt.Printf("[bc] sources=%d top=%v\n", len(res.Sources), topK(res.Score, 5))
		case "stcon":
			ok, d := graphct.STConnectivity(g, source, *dst, rec)
			fmt.Printf("[stcon] %d->%d connected=%v distance=%d\n", source, *dst, ok, d)
		case "sv":
			res := graphct.ConnectedComponentsSV(g, rec)
			sizes, largest := graphct.ComponentSizes(res.Labels)
			fmt.Printf("[sv] %d components, largest %d, %d rounds (%d hooks, %d jumps)\n",
				len(sizes), largest, res.Iterations, res.Hooks, res.Jumps)
		case "lp":
			res := graphct.LabelPropagation(g, graphct.CommunityOptions{}, rec)
			fmt.Printf("[lp] %d communities in %d iterations (converged=%v), modularity %.4f\n",
				res.Communities, res.Iterations, res.Converged, graphct.Modularity(g, res.Labels))
		case "diameter":
			d := graphct.ApproxDiameter(g, source, 4, rec)
			fmt.Printf("[diameter] >= %d (double-sweep estimate from %d)\n", d, source)
		default:
			usage("unknown kernel %q", k)
		}
		fmt.Printf("        simulated time on %d procs: %.4fs\n",
			*procs, machine.Seconds(model, rec.Phases(), *procs))
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphct: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphct:", err)
	os.Exit(1)
}

// topK returns the indices of the k largest scores, formatted.
func topK(scores []float64, k int) []string {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = fmt.Sprintf("%d:%.4g", idx[i], scores[idx[i]])
	}
	return out
}
