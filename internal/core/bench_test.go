package core_test

// Engine benchmarks: the host wall-clock cost of the BSP runtime itself
// (sweep, deliver, termination) isolated from any one algorithm's arithmetic.
// The flood-minimum program is the dense BFS/CC superstep pattern the paper
// spends most of its time in; the relay program is the sparse-activation
// worst case (tiny active sets for many supersteps).
//
// Run with -bench Engine; compare par.SetWorkers(1) against the default to
// see the host-parallel speedup. Simulated results and profiles are
// identical at any worker count (see matrix_test.go).

import (
	"fmt"
	"sync"
	"testing"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

const engineBenchScale = 18

var (
	// engineGraph is the scale-18 RMAT the engine benches share, and
	// engineGraphCompressed its delta-varint twin — same logical graph,
	// compressed adjacency — for the representation A/B pair; each built once.
	engineGraph = sync.OnceValue(func() *graph.Graph {
		return mustGraph(gen.RMAT(gen.RMATConfig{Scale: engineBenchScale, EdgeFactor: 8, Seed: 7}))
	})
	engineGraphCompressed = sync.OnceValue(func() *graph.Graph { return mustGraph(graph.Compress(engineGraph())) })
)

// benchFloodMin floods the minimum vertex ID — the dense CC/BFS superstep
// pattern: every improved vertex re-floods its neighborhood.
type benchFloodMin struct{}

func (benchFloodMin) InitialState(_ *graph.Graph, v int64) int64 { return v }
func (benchFloodMin) Compute(v *core.VertexContext) {
	st := v.State()
	changed := false
	for _, m := range v.Messages() {
		if m < st {
			st = m
			changed = true
		}
	}
	if changed {
		v.SetState(st)
	}
	if v.Superstep() == 0 || changed {
		v.SendToNeighbors(st)
	}
	v.VoteToHalt()
}

func benchRun(b *testing.B, cfg core.Config) (res *core.Result) {
	b.Helper()
	b.ReportAllocs()
	// The caller built the input graph before this point (a sync.Once RMAT
	// build on first use); without the reset, the first benchmark to run
	// would bill that construction to its first iteration.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkEngineDenseFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}})
}

// BenchmarkEngineDenseFloodCompressed is the representation A/B control:
// the same dense flood over the delta-varint compressed graph, so the
// streaming-decode cost on the engine's scatter and worklist sweeps is the
// DenseFloodCompressed / DenseFlood ratio on identical logical work.
func BenchmarkEngineDenseFloodCompressed(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraphCompressed(), Program: benchFloodMin{}})
}

func BenchmarkEngineDenseFloodCombiner(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}, Combiner: core.Min})
}

func BenchmarkEngineSparseFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}, SparseActivation: true})
}

func BenchmarkEngineSparseFloodCombiner(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}, SparseActivation: true, Combiner: core.Min})
}

// BenchmarkEngineWorkers pins the host worker count so speedup curves can
// be read off directly: -bench EngineWorkers -cpu 1 is not needed, the
// subbenchmark name carries the worker count.
func BenchmarkEngineWorkers(b *testing.B) {
	g := engineGraph()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			defer par.SetWorkers(par.SetWorkers(w))
			benchRun(b, core.Config{Graph: g, Program: benchFloodMin{}})
		})
	}
}

// Degree-skew benchmarks: the sweep partition on the graphs it exists for.
// The star is the worst case vertex-count chunking would face — one chunk
// owning nearly every edge — and its hub inbox exercises the combining path's
// segment prefold; the RMAT graph is the paper's skewed-degree workload.
var (
	skewStar = sync.OnceValue(func() *graph.Graph { return gen.Star(1 << 18) })
	skewRMAT = sync.OnceValue(func() *graph.Graph {
		return mustGraph(gen.RMAT(gen.RMATConfig{Scale: 16, EdgeFactor: 16, Seed: 7}))
	})
)

func BenchmarkEngineSkewStarFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: skewStar(), Program: benchFloodMin{}, Combiner: core.Min})
}

func BenchmarkEngineSkewRMATDenseFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: skewRMAT(), Program: benchFloodMin{}, Combiner: core.Min})
}

func BenchmarkEngineSkewRMATSparseFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: skewRMAT(), Program: benchFloodMin{}, SparseActivation: true, Combiner: core.Min})
}

// BenchmarkEngineSkewTC runs the message-heaviest algorithm (triangle
// counting floods adjacency lists as candidate messages, so hubs dominate
// both send and delivery work) on a smaller RMAT instance that keeps the
// candidate-message volume benchable. log-B/msg is the unicast log's
// footprint per message: under 10, because the wedges of superstep 1, most
// of the traffic, go out in long runs to one destination at 8 bytes and a
// bit; supersteps 0 and 2 send runs of one, 16 bytes a message.
func BenchmarkEngineSkewTC(b *testing.B) {
	g := mustGraph(gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 7}))
	tc := func(opts ...core.Option) {
		if _, err := bspalg.Triangles(g, nil, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc()
	}
	b.StopTimer()
	var bytes, msgs int64
	tc(core.WithLogBytes(&bytes, &msgs))
	b.ReportMetric(float64(bytes)/float64(msgs), "log-B/msg")
}

// benchHubSend has every vertex Send to the same eight destinations in
// superstep 0: the unicast path's worst case for the group-by-destination,
// every delivery worker counting and scattering into the same eight groups.
type benchHubSend struct{}

func (benchHubSend) InitialState(*graph.Graph, int64) int64 { return 0 }
func (benchHubSend) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		for hub := int64(0); hub < 8; hub++ {
			v.Send(hub, v.ID())
		}
	}
	v.VoteToHalt()
}

// BenchmarkEngineUnicastHub: 2^20 unicast messages to eight hubs, grouped
// (no combiner) and folded (Sum, through the sequential denseFold). No two
// consecutive sends share a destination, so every run is one message long
// and log-B/msg is 16: a value and a run header each.
func BenchmarkEngineUnicastHub(b *testing.B) {
	g := gen.Ring(1 << 17)
	for _, cb := range []struct {
		name string
		fn   func(a, b int64) int64
	}{{"none", nil}, {"sum", core.Sum}} {
		b.Run("combiner="+cb.name, func(b *testing.B) {
			cfg := core.Config{Graph: g, Program: benchHubSend{}, Combiner: cb.fn}
			benchRun(b, cfg)
			b.StopTimer()
			var bytes, msgs int64
			core.WithLogBytes(&bytes, &msgs)(&cfg)
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(bytes)/float64(msgs), "log-B/msg")
		})
	}
}

// Broadcast-path benchmarks on the star: the extreme frontier-vs-edges
// gap. When every leaf floods, the engine holds one broadcast record per
// leaf instead of one message per edge; the non-combined variant exercises
// the record scatter, the combined variant the pull-side fold over the
// hub's quarter-million stamped neighbors.
func BenchmarkEngineBcastStarFlood(b *testing.B) {
	benchRun(b, core.Config{Graph: skewStar(), Program: benchFloodMin{}})
}

func BenchmarkEngineBcastStarFloodCombiner(b *testing.B) {
	benchRun(b, core.Config{Graph: skewStar(), Program: benchFloodMin{}, Combiner: core.Min})
}

// Direction A/B benchmarks: BFS (no combiner — the pull-scatter path) on
// the scale-18 RMAT graph, the engine's own decisions against the forced-push
// oracle (core.ForceDirection). The decided run executes apex supersteps as
// pull sweeps over sorted adjacency instead of scattering every frontier
// record through per-vertex counting sort; results and profiles are
// bit-identical (matrix_test.go), so the Auto/Push ratio is pure delivery
// cost on identical work.
func BenchmarkEngineDirBFSAuto(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: bspalg.BFSProgram{Source: 0}})
}

func BenchmarkEngineDirBFSPush(b *testing.B) {
	cfg := core.Config{Graph: engineGraph(), Program: bspalg.BFSProgram{Source: 0}}
	core.ForceDirection(core.DirPush)(&cfg)
	benchRun(b, cfg)
}

// BenchmarkGather is the sweep after a pull boundary and nothing else: every
// vertex of the engine graph gathers once (core.NewGatherSweep), for each
// fold the gather specialises, a frontier of every 16th connected vertex,
// every 2nd, or all of them (saturated: no receiver stamps to test), on both
// representations. ns/arc is per arc of the graph, walked or not — a
// combining gather skips the vertices no stamped neighbor reaches.
func BenchmarkGather(b *testing.B) {
	folds := []struct {
		name string
		f    func(a, b int64) int64
	}{{"none", nil}, {"or", core.Or}, {"sum", core.Sum}, {"min", core.Min},
		{"generic", func(a, b int64) int64 { return max(a, b) }}}
	fracs := []struct {
		name  string
		every int64
	}{{"1of16", 16}, {"1of2", 2}, {"saturated", 1}}
	for _, g := range []*graph.Graph{engineGraph(), engineGraphCompressed()} {
		for _, fold := range folds {
			for _, frac := range fracs {
				b.Run(fmt.Sprintf("%s/%s/%s", fold.name, frac.name, g.Rep()), func(b *testing.B) {
					var srcs []int64
					for v, k := int64(0), int64(0); v < g.NumVertices(); v++ {
						if g.Degree(v) > 0 {
							if k%frac.every == 0 {
								srcs = append(srcs, v)
							}
							k++
						}
					}
					sweep := core.NewGatherSweep(g, fold.f, srcs)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sweep()
					}
					arcs := g.Offsets()[g.NumVertices()]
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*arcs), "ns/arc")
				})
			}
		}
	}
}

// benchRelay passes a hop-counted token around a ring — the sparse
// worst case: one active vertex per superstep for many supersteps, where
// the worklist build and termination check dominate the engine's cost.
type benchRelay struct {
	hops int64
	n    int64
}

func (benchRelay) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p benchRelay) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		if v.ID() == 0 {
			v.Send(1%p.n, 1)
		}
		v.VoteToHalt()
		return
	}
	for _, m := range v.Messages() {
		if m < p.hops {
			v.Send((v.ID()+1)%p.n, m+1)
		}
	}
	v.VoteToHalt()
}

// relayConfig is the token relayed 1024 hops around a 2^16-vertex ring
// under sparse activation, with sink attached.
func relayConfig(sink obs.Sink) core.Config {
	const n = 1 << 16
	return core.Config{Graph: gen.Ring(n), Program: benchRelay{hops: 1024, n: n}, SparseActivation: true, MaxSupersteps: 2000, Obs: sink}
}

// BenchmarkEngineSparseRelay measures per-superstep engine overhead with a
// single-vertex active set (1024 supersteps per run).
func BenchmarkEngineSparseRelay(b *testing.B) {
	benchRun(b, relayConfig(nil))
}

// BenchmarkEngineGridBFSFullScan is the paper's schedule at its worst: a
// BFS wave crossing a 256x256 grid in 511 supersteps, each scanning all
// 65,536 vertices to run at most 256 of them and deliver ~500 messages.
// What it measures is the scan's cost per idle vertex and the boundary's
// fixed cost, nothing else; ns/scanned-vertex is the whole run's time over
// vertices times supersteps.
func BenchmarkEngineGridBFSFullScan(b *testing.B) {
	g := gen.Grid(256, 256)
	res := benchRun(b, core.Config{
		Graph:         g,
		Program:       bspalg.BFSProgram{Source: 0},
		MaxSupersteps: -1,
	})
	scanned := int64(b.N) * g.NumVertices() * int64(res.Supersteps)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/scanned-vertex")
}

// Observability-attached variants of the engine benchmarks. Compare against
// the plain benchmarks above to measure the observed-run cost; the nil-sink
// case is the plain benchmarks themselves (Config.Obs nil), which the
// instrumentation must leave within noise (<2%).
func BenchmarkEngineDenseFloodObs(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}, Obs: obs.NewReport()})
}

func BenchmarkEngineSparseRelayObs(b *testing.B) {
	benchRun(b, relayConfig(obs.NewReport()))
}

// BenchmarkEngineDenseFloodMetrics swaps the report sink for the live
// metrics registry — the sink a -http run keeps attached for its whole
// lifetime, so its overhead (atomic counter/histogram updates per event) is
// what a scraped production run pays. Guarded by the bench gate against
// BenchmarkEngineDenseFlood (nil sink); see PERFORMANCE.md for the measured
// delta.
func BenchmarkEngineDenseFloodMetrics(b *testing.B) {
	benchRun(b, core.Config{Graph: engineGraph(), Program: benchFloodMin{}, Obs: obs.NewMetrics(nil)})
}

func BenchmarkEngineSparseRelayMetrics(b *testing.B) {
	benchRun(b, relayConfig(obs.NewMetrics(nil)))
}

// MS-BFS A/B pair: one 64-lane batched run against 64 sequential
// single-source runs over the same stride-spread sources — the amortization
// headline (Batch64 vs Sequential64 is the per-batch speedup; divide by 64
// for per-query cost). Per-lane results are asserted bit-identical in
// bspalg's equivalence matrix, so the ratio is pure traffic amortization on
// identical answers. The Compressed twins measure the same batch over
// delta-varint adjacency (the CSR2 serving representation).
func msbfsBenchPlan(b *testing.B, g *graph.Graph) *batch.Plan {
	b.Helper()
	n := g.NumVertices()
	srcs := make([]int64, 0, batch.MaxLanes)
	for i := int64(0); i < batch.MaxLanes; i++ {
		srcs = append(srcs, i*n/batch.MaxLanes)
	}
	plan, err := batch.NewPlan(srcs, n)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// benchMSBFS runs the plan's 64 sources as one batch, or one by one.
func benchMSBFS(b *testing.B, g *graph.Graph, batched bool) {
	plan := msbfsBenchPlan(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if _, err := bspalg.MultiBFS(g, plan, nil); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for _, s := range plan.Sources {
			if _, err := bspalg.BFS(g, s, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineMSBFSBatch64(b *testing.B)      { benchMSBFS(b, engineGraph(), true) }
func BenchmarkEngineMSBFSSequential64(b *testing.B) { benchMSBFS(b, engineGraph(), false) }
func BenchmarkEngineMSBFSBatch64Compressed(b *testing.B) {
	benchMSBFS(b, engineGraphCompressed(), true)
}
func BenchmarkEngineMSBFSSequential64Compressed(b *testing.B) {
	benchMSBFS(b, engineGraphCompressed(), false)
}
