// Command graphct runs the shared-memory graph kernels (the paper's
// baseline) as a workflow over a stored graph, in the spirit of GraphCT's
// function-call workflows: load once, run a comma-separated list of
// kernels, print results and simulated Cray XMT times.
//
// Usage:
//
//	graphct -g graph.gxmt -kernels degrees,cc [-src -1] [-dst 0] [-procs 128] [-samples 16] [-workers N]
//	        [-obs-format report|jsonl|chrome] [-obs-out trace.json] [-pprof addr|file]
//
// The kernels are the rows of internal/bspalg's kernel table with a
// GraphCT twin that needs no edge weights; -h lists them. Every name is
// checked before the graph is read.
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
	"strings"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// workflow selects graphct's kernels; the weighted SSSP twin runs only in
// the experiments.
func workflow(k *bspalg.Kernel) bool { return k.Twin != nil && k.Reads&bspalg.Weights == 0 }

func main() {
	path := flag.String("g", "", "graph file (required)")
	kernels := flag.String("kernels", "degrees,cc", "comma-separated kernels: "+bspalg.Names(workflow))
	src := flag.Int64("src", -1, "source vertex for "+bspalg.Names(func(k *bspalg.Kernel) bool { return workflow(k) && k.Reads&bspalg.Source != 0 })+" (-1 = max-degree vertex)")
	dst := flag.Int64("dst", 0, "target vertex for "+bspalg.Names(func(k *bspalg.Kernel) bool { return workflow(k) && k.Reads&bspalg.Target != 0 }))
	procs := flag.Int("procs", 128, "simulated processors")
	samples := flag.Int("samples", 16, "betweenness sample count (0 = exact)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *path == "" {
		usage("-g is required")
	}
	var ks []*bspalg.Kernel
	for _, name := range strings.Split(*kernels, ",") {
		name = strings.TrimSpace(name)
		k := bspalg.Lookup(name)
		if k == nil || !workflow(k) {
			usage("unknown kernel %q", name)
		}
		ks = append(ks, k)
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
	p := bspalg.Params{Source: *src, Target: *dst, Samples: *samples, Seed: 7}
	if p.Source < 0 {
		p.Source = g.MaxDegreeVertex()
	}
	for _, k := range ks {
		if (k.Reads&bspalg.Source != 0 && p.Source >= g.NumVertices()) || (k.Reads&bspalg.Target != 0 && p.Target >= g.NumVertices()) {
			usage("-src/-dst out of range [0,%d)", g.NumVertices())
		}
	}

	for _, k := range ks {
		rec := trace.NewRecorder()
		sess.Attach(rec, g.NumVertices(), g.NumEdges())
		out, _ := k.Twin(g, p, rec) // twins never fail
		for _, line := range out.Lines {
			fmt.Println(line)
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
