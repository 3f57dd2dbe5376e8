// Graph500-style BFS benchmark in both programming models. The paper
// motivates breadth-first search as "the classical graph traversal
// algorithm ... used in the Graph500 benchmark": this example runs the
// internal/graph500 harness on an RMAT graph — BFS from sampled search
// keys, specification-style tree validation, and TEPS statistics under the
// simulated Cray XMT — once with the shared-memory kernel and once with
// the BSP vertex program.
//
// Run with: go run ./examples/graph500
package main

import (
	"fmt"
	"log"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph500"
)

func main() {
	const scale, edgeFactor = 13, 16
	base := graph500.Config{SearchKeys: 16, Seed: 42, Procs: 128}
	fmt.Printf("graph500-style run: scale %d, edge factor %d, %d search keys, %d simulated procs\n",
		scale, edgeFactor, base.SearchKeys, base.Procs)

	g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: edgeFactor, Seed: base.Seed})
	if err != nil {
		log.Fatal(err)
	}
	shared, err := graph500.RunOnGraph(g, base)
	if err != nil {
		log.Fatal(err)
	}
	bspCfg := base
	bspCfg.BSP = true
	bsp, err := graph500.RunOnGraph(g, bspCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %v\n", g)
	fmt.Printf("validated searches: shared %d/%d, bsp %d/%d (spec-style tree checks)\n\n",
		shared.Validated, len(shared.Keys), bsp.Validated, len(bsp.Keys))

	fmt.Printf("%-14s %14s %14s\n", "", "GraphCT", "BSP")
	fmt.Printf("%-14s %13.3g %13.3g\n", "min TEPS", shared.MinTEPS, bsp.MinTEPS)
	fmt.Printf("%-14s %13.3g %13.3g\n", "median TEPS", shared.MedianTEPS, bsp.MedianTEPS)
	fmt.Printf("%-14s %13.3g %13.3g\n", "harmonic TEPS", shared.HarmonicMeanTEPS, bsp.HarmonicMeanTEPS)
	fmt.Printf("%-14s %13.3g %13.3g\n", "max TEPS", shared.MaxTEPS, bsp.MaxTEPS)
	fmt.Printf("\nBSP runs at %.1fx lower harmonic-mean TEPS — the paper's factor-of-10 envelope\n",
		shared.HarmonicMeanTEPS/bsp.HarmonicMeanTEPS)
}
