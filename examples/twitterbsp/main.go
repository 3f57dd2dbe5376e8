// BSP single-source shortest paths on a Twitter-like graph — the external
// comparison the paper cites: "Kajdanowicz et al. computes Single Source
// Shortest Path on a graph derived from Twitter with 43.7 million vertices
// and 688 million edges ... Giraph completes the algorithm in an average
// of approximately 30 seconds" with flat scaling from 30 to 85 machines.
//
// This example runs the same computation on graphxmt's BSP engine over a
// downscaled synthetic Twitter (scale-free RMAT, weighted edges standing
// in for interaction costs) and reports the simulated Cray XMT scaling
// curve, showing the same flat region once parallelism is exhausted.
//
// Run with: go run ./examples/twitterbsp
package main

import (
	"fmt"
	"log"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

func main() {
	// Synthetic Twitter: scale-free topology, small integer edge weights.
	edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 14, EdgeFactor: 16, Seed: 2024})
	if err != nil {
		log.Fatal(err)
	}
	weights := gen.UniformWeights(len(edges), 10, 99)
	g, err := graph.Build(n, edges, graph.BuildOptions{Weights: weights})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synthetic twitter:", g)

	// Root at the loudest account.
	var src, best int64 = 0, -1
	for v := int64(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > best {
			best, src = d, v
		}
	}

	rec := trace.NewRecorder()
	res, err := bspalg.SSSP(g, src, rec)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against sequential Dijkstra.
	want := bspalg.ReferenceSSSP(g, src)
	for v := range want {
		if res.Dist[v] != want[v] {
			log.Fatalf("sssp mismatch at vertex %d", v)
		}
	}
	reached, maxd := 0, int64(0)
	for _, d := range res.Dist {
		if d >= 0 {
			reached++
			if d > maxd {
				maxd = d
			}
		}
	}
	fmt.Printf("sssp from v%d: reached %d vertices, max distance %d, %d supersteps (verified vs Dijkstra)\n",
		src, reached, maxd, res.Supersteps)

	// The Kajdanowicz observation: adding machines stops helping once the
	// per-superstep parallelism is exhausted. Sweep the simulated machine.
	model := machine.NewAnalytic(machine.DefaultConfig())
	fmt.Println("\nsimulated scaling (note the flattening tail, as in the Giraph study):")
	prev := 0.0
	for _, procs := range []int{8, 16, 32, 64, 128} {
		t := machine.Seconds(model, rec.Phases(), procs)
		note := ""
		if prev > 0 {
			speedup := prev / t
			note = fmt.Sprintf("  (x%.2f from previous)", speedup)
		}
		fmt.Printf("  %3d procs: %.5fs%s\n", procs, t, note)
		prev = t
	}
}
