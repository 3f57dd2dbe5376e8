// Package graphxmt is a reproduction of "Investigating Graph Algorithms in
// the BSP Model on the Cray XMT" (David Ediger and David A. Bader, IEEE
// IPDPSW 2013): a comparison of vertex-centric bulk synchronous parallel
// (Pregel-style) graph algorithms against hand-tuned shared-memory kernels
// on a massively multithreaded machine.
//
// The repository contains, under internal/:
//
//   - core: the BSP vertex-program engine (the paper's contribution)
//   - bspalg: the paper's Algorithms 1-3 (connected components, BFS,
//     triangle counting) plus SSSP, PageRank, betweenness, k-core, label
//     propagation, Luby's MIS, and a streaming triangle evaluator
//   - graphct: the shared-memory baseline kernels (GraphCT ports)
//   - graph, graphio, gen, rng, par, trace: the substrates (CSR graphs,
//     I/O in three formats, RMAT/ER/WS/BA and structured generators,
//     deterministic PRNG, host parallelism, work-profile tracing)
//   - machine: the simulated Cray XMT (an analytic Threadstorm model,
//     checked against a test-only discrete-event simulator, and regime
//     diagnosis) standing in for the hardware;
//     full/empty-bit synchronization is charged as memory and hotspot
//     operations in the work profiles only
//   - graph500: a Graph500-style BFS benchmark harness with validation
//   - experiments: drivers that regenerate Table I, Figures 1-4, the
//     auxiliary counts, regime diagnoses, and the ablations
//
// Executables live under cmd/ (xmtbench, graphgen, graphct, bspgraph,
// profile) and runnable examples under examples/. See README.md,
// DESIGN.md, docs/MODEL.md and EXPERIMENTS.md.
package graphxmt
