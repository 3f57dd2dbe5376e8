package bspalg

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"graphxmt/internal/batch"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/trace"
)

// The kernel table: one row per algorithm, pairing its BSP vertex program
// with its GraphCT shared-memory twin as the paper's Table I does. Both
// CLIs' kernel lists, usage text and flag checks, and the experiments'
// BSP-vs-GraphCT pairs, are read from the rows. A row's checkpoints need
// nothing from it: the engine fingerprints the program value a runner
// builds (core.ProgramNameOf), parameters included.

// Param is a set of the parameters a kernel reads.
type Param uint8

const (
	Source  Param = 1 << iota // Params.Source
	Target                    // Params.Target
	Sources                   // Params.Plan
	Rounds                    // Params.Rounds
	Samples                   // Params.Samples
	Seed                      // Params.Seed
	Weights                   // the graph's edge weights
)

// Params are the inputs a runner may read; a row's Reads names which.
type Params struct {
	Source, Target int64
	// Plan, when non-nil, replaces Source with several sources; Batch
	// answers them in one MS-BFS pass rather than one pass each.
	Plan    *batch.Plan
	Batch   bool
	Rounds  int // 0 selects the kernel's default
	Samples int // betweenness sources (0 = every vertex)
	Seed    uint64
}

// Out is what one run produced: the lines a CLI prints, the integer
// answer (labels, distances, core numbers, a count) or floating-point
// scores, and the BSP supersteps or GraphCT iterations it took.
type Out struct {
	Lines  []string
	Answer []int64
	Scores []float64
	Steps  int
}

// Runner runs one model of a kernel. GraphCT twins ignore opts and never
// fail.
type Runner func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error)

// Kernel is one row of the table.
type Kernel struct {
	Name  string
	Reads Param
	// MultiPass rows are not one checkpointable engine pass.
	MultiPass bool
	// Exact rows' BSP and GraphCT Answers are equal.
	Exact bool
	// A nil BSP is a GraphCT-only kernel, a nil Twin a BSP-only one.
	BSP, Twin Runner
}

// Lookup returns the row named name, or nil.
func Lookup(name string) *Kernel {
	for _, k := range kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Names lists the rows keep selects, comma-separated in table order.
func Names(keep func(*Kernel) bool) string {
	var names []string
	for _, k := range kernels {
		if keep(k) {
			names = append(names, k.Name)
		}
	}
	return strings.Join(names, ", ")
}

var kernels = []*Kernel{
	{
		Name: "cc", Exact: true,
		BSP: func(g *graph.Graph, _ Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(ConnectedComponents(g, rec, opts...))(func(r *CCResult) Out {
				return Out{Lines: []string{
					fmt.Sprintf("[bsp cc] %d components in %d supersteps", graph.CountComponents(r.Labels), r.Supersteps),
					fmt.Sprintf("         active/step:   %v", r.ActivePerStep),
					fmt.Sprintf("         messages/step: %v", r.MessagesPerStep),
				}, Answer: r.Labels, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.ConnectedComponents(g, rec)
			sizes, largest := graphct.ComponentSizes(r.Labels)
			return Out{Lines: []string{fmt.Sprintf("[cc] %d components, largest %d vertices, %d iterations", len(sizes), largest, r.Iterations)},
				Answer: r.Labels, Steps: r.Iterations}, nil
		},
	},
	{
		// With a Plan, Answer is every source's distances in plan order.
		Name: "bfs", Reads: Source | Sources, Exact: true,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			if p.Plan != nil && p.Batch {
				return then(MultiBFS(g, p.Plan, rec, opts...))(func(r *MultiResult) Out {
					lanes := p.Plan.Occupancy()
					out := Out{Lines: []string{
						fmt.Sprintf("[bsp multibfs] lanes=%d supersteps=%d reached(sum over lanes)=%d", lanes, r.Supersteps, lanesReached(r.Masks)),
						fmt.Sprintf("               messages/step: %v", r.MessagesPerStep),
						fmt.Sprintf("               amortized edge traversals/query: %.0f", float64(sum(r.MessagesPerStep))/float64(lanes)),
					}, Steps: r.Supersteps}
					for lane := range p.Plan.Sources {
						out.Answer = append(out.Answer, r.Dist(lane)...)
					}
					return out
				})
			}
			if p.Plan != nil {
				// One engine pass per source: MS-BFS's control.
				var out Out
				for _, s := range p.Plan.Sources {
					r, err := BFS(g, s, rec, opts...)
					if err != nil {
						return out, err
					}
					out.Lines = append(out.Lines, fmt.Sprintf("[bsp bfs] source=%d supersteps=%d reached=%d", s, r.Supersteps, sum(r.FrontierPerStep)))
					out.Answer, out.Steps = append(out.Answer, r.Dist...), out.Steps+r.Supersteps
				}
				return out, nil
			}
			return then(BFS(g, p.Source, rec, opts...))(func(r *BFSResult) Out {
				return Out{Lines: []string{
					fmt.Sprintf("[bsp bfs] source=%d supersteps=%d reached=%d", p.Source, r.Supersteps, sum(r.FrontierPerStep)),
					fmt.Sprintf("          frontier/level: %v", r.FrontierPerStep),
					fmt.Sprintf("          messages/step:  %v", r.MessagesPerStep),
				}, Answer: r.Dist, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, p Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.BFS(g, p.Source, rec)
			return Out{Lines: []string{fmt.Sprintf("[bfs] source=%d levels=%d reached=%d frontiers=%v", p.Source, r.Levels, sum(r.FrontierSizes), r.FrontierSizes)},
				Answer: r.Dist, Steps: r.Levels}, nil
		},
	},
	{
		// Batched reachability, no levels; Answer is every vertex's lane mask.
		Name: "reach", Reads: Sources,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(runMulti(g, p.Plan, rec, false, opts))(func(r *MultiResult) Out {
				return Out{Lines: []string{fmt.Sprintf("[bsp multireach] lanes=%d supersteps=%d reached(sum over lanes)=%d", p.Plan.Occupancy(), r.Supersteps, lanesReached(r.Masks))},
					Answer: r.Masks, Steps: r.Supersteps}
			})
		},
	},
	{
		// graphct offers no weighted kernel; the twin runs in the experiments.
		Name: "sssp", Reads: Source | Weights, Exact: true,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(SSSP(g, p.Source, rec, opts...))(func(r *SSSPResult) Out {
				reached := 0
				for _, d := range r.Dist {
					if d >= 0 {
						reached++
					}
				}
				return Out{Lines: []string{fmt.Sprintf("[bsp sssp] source=%d supersteps=%d reached=%d", p.Source, r.Supersteps, reached)},
					Answer: r.Dist, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, p Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.BellmanFordSSSP(g, p.Source, rec)
			return Out{Answer: r.Dist, Steps: r.Iterations}, nil
		},
	},
	{
		Name: "tc", Exact: true,
		BSP: func(g *graph.Graph, _ Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(Triangles(g, rec, opts...))(tcOut("tc"))
		},
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.Triangles(g, rec)
			return Out{Lines: []string{fmt.Sprintf("[tc] triangles=%d writes=%d merge-steps=%d", r.Count, r.Writes, r.CompareOps)}, Answer: []int64{r.Count}}, nil
		},
	},
	{
		// The engine's counts and cost profile without materializing the
		// wedges; its twin is the tc row's.
		Name: "tc-streaming", MultiPass: true,
		BSP: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			return then(StreamingTriangles(g, rec))(tcOut("tc-streaming"))
		},
	},
	{
		Name: "pagerank", Reads: Rounds,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(PageRank(g, p.Rounds, rec, opts...))(func(r *PageRankResult) Out {
				arg, max := argmax(r.Rank)
				return Out{Lines: []string{fmt.Sprintf("[bsp pagerank] supersteps=%d top vertex %d (%.5f)", r.Supersteps, arg, max)}, Scores: r.Rank, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.PageRank(g, graphct.PageRankOptions{}, rec)
			return Out{Lines: []string{fmt.Sprintf("[pagerank] iterations=%d converged=%v top=%v", r.Iterations, r.Converged, topK(r.Rank, 5))},
				Scores: r.Rank, Steps: r.Iterations}, nil
		},
	},
	{
		Name: "kcore", Exact: true,
		BSP: func(g *graph.Graph, _ Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(run(core.Config{Graph: g, Program: NewKCoreProgram(g), Recorder: rec}, opts))(func(r *core.Result) Out {
				return Out{Lines: []string{fmt.Sprintf("[bsp kcore] degeneracy=%d supersteps=%d", maxOf(r.States), r.Supersteps)},
					Answer: r.States, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.KCore(g, rec)
			return Out{Lines: []string{fmt.Sprintf("[kcore] degeneracy=%d rounds=%d", r.MaxCore, r.Rounds)},
				Answer: r.Core, Steps: r.Rounds}, nil
		},
	},
	{
		// Labels differ legitimately: synchronous versus in-place sweeps.
		Name: "lp", Reads: Rounds,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(LabelPropagation(g, p.Rounds, rec, opts...))(func(r *LPResult) Out {
				return Out{Lines: []string{fmt.Sprintf("[bsp lp] %d communities in %d supersteps", r.Communities, r.Supersteps)},
					Answer: r.Labels, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.LabelPropagation(g, graphct.CommunityOptions{}, rec)
			return Out{Lines: []string{fmt.Sprintf("[lp] %d communities in %d iterations (converged=%v), modularity %.4f",
				r.Communities, r.Iterations, r.Converged, graphct.Modularity(g, r.Labels))}, Answer: r.Labels, Steps: r.Iterations}, nil
		},
	},
	{
		Name: "bc", Reads: Samples | Seed, MultiPass: true,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(betweenness(g, p.Samples, p.Seed, rec, opts...))(func(r *betweennessResult) Out {
				arg, max := argmax(r.Score)
				return Out{Lines: []string{fmt.Sprintf("[bsp bc] sources=%d supersteps=%d top vertex %d (%.4g)", len(r.Sources), r.Supersteps, arg, max)},
					Scores: r.Score, Steps: r.Supersteps}
			})
		},
		Twin: func(g *graph.Graph, p Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.Betweenness(g, graphct.BetweennessOptions{Samples: p.Samples, Seed: p.Seed}, rec)
			return Out{Lines: []string{fmt.Sprintf("[bc] sources=%d top=%v", len(r.Sources), topK(r.Score, 5))}, Scores: r.Score}, nil
		},
	},
	{
		// Answer marks the members with 1.
		Name: "mis", Reads: Seed,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			return then(run(core.Config{Graph: g, Program: misProgram{Seed: p.Seed}, Recorder: rec}, opts))(func(r *core.Result) Out {
				in := make([]int64, len(r.States))
				for v, s := range r.States {
					if s == misIn {
						in[v] = 1
					}
				}
				return Out{Lines: []string{fmt.Sprintf("[bsp mis] %d members in %d rounds (valid=%v)", sum(in), (r.Supersteps+1)/2, validateMIS(g, in))},
					Answer: in, Steps: r.Supersteps}
			})
		},
	},
	{
		// Four double-sweep BFS passes; Answer is the bound.
		Name: "diameter", Reads: Source, MultiPass: true, Exact: true,
		BSP: func(g *graph.Graph, p Params, rec *trace.Recorder, opts ...core.Option) (Out, error) {
			d, err := approxDiameter(g, p.Source, 4, rec, opts...)
			if err != nil {
				return Out{}, err
			}
			return Out{Lines: []string{fmt.Sprintf("[bsp diameter] >= %d (double-sweep from %d)", d, p.Source)},
				Answer: []int64{d}}, nil
		},
		Twin: func(g *graph.Graph, p Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			d := graphct.ApproxDiameter(g, p.Source, 4, rec)
			return Out{Lines: []string{fmt.Sprintf("[diameter] >= %d (double-sweep estimate from %d)", d, p.Source)},
				Answer: []int64{d}}, nil
		},
	},
	{
		// Answer is min, max, median, p99 and the isolated count.
		Name: "degrees",
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			s := graphct.Degrees(g, rec)
			return Out{Lines: []string{fmt.Sprintf("[degrees] min=%d max=%d mean=%.2f median=%d p99=%d isolated=%d gini=%.3f assortativity=%.3f",
				s.Min, s.Max, s.Mean, s.Median, s.P99, s.Isolated, s.GiniIndex, graphct.Assortativity(g, rec))},
				Answer: []int64{s.Min, s.Max, s.Median, s.P99, s.Isolated}}, nil
		},
	},
	{
		Name: "sv",
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.ConnectedComponentsSV(g, rec)
			sizes, largest := graphct.ComponentSizes(r.Labels)
			return Out{Lines: []string{fmt.Sprintf("[sv] %d components, largest %d, %d rounds (%d hooks, %d jumps)", len(sizes), largest, r.Iterations, r.Hooks, r.Jumps)},
				Answer: r.Labels, Steps: r.Iterations}, nil
		},
	},
	{
		// Answer is the triangle count.
		Name: "ccoef",
		Twin: func(g *graph.Graph, _ Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			r := graphct.ClusteringCoefficients(g, rec)
			return Out{Lines: []string{fmt.Sprintf("[ccoef] triangles=%d global=%.4f", r.Triangles, r.Global)}, Answer: []int64{r.Triangles}}, nil
		},
	},
	{
		// Answer is the hop distance, -1 when not connected.
		Name: "stcon", Reads: Source | Target,
		Twin: func(g *graph.Graph, p Params, rec *trace.Recorder, _ ...core.Option) (Out, error) {
			ok, d := graphct.STConnectivity(g, p.Source, p.Target, rec)
			return Out{Lines: []string{fmt.Sprintf("[stcon] %d->%d connected=%v distance=%d", p.Source, p.Target, ok, d)}, Answer: []int64{d}}, nil
		},
	},
}

// then hands a wrapper's result to report, or passes its error on.
func then[R any](res R, err error) func(report func(R) Out) (Out, error) {
	return func(report func(R) Out) (Out, error) {
		if err != nil {
			return Out{}, err
		}
		return report(res), nil
	}
}

func tcOut(name string) func(*TCResult) Out {
	return func(r *TCResult) Out {
		return Out{Lines: []string{fmt.Sprintf("[bsp %s] triangles=%d candidates=%d total-messages=%d supersteps=%d", name, r.Count, r.CandidateMessages, r.TotalMessages, r.Supersteps)},
			Answer: []int64{r.Count}, Steps: r.Supersteps}
	}
}

// run applies a wrapper's trailing engine options to cfg and runs it.
func run(cfg core.Config, opts []core.Option) (*core.Result, error) {
	for _, o := range opts {
		o(&cfg)
	}
	return core.Run(cfg)
}

// waveSupersteps bounds a run whose wave advances one hop per superstep —
// BFS, a batch of them, connected components: a start, at most n-1 hops,
// and a drain, however long the input's diameter. The engine's default
// bound of 1,000 would refuse a path of a few thousand vertices.
func waveSupersteps(g *graph.Graph) int { return int(g.NumVertices()) + 2 }

func maxOf(xs []int64) (m int64) {
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// lanesReached sums per-lane reached-set sizes: the popcount of every
// vertex's lane mask.
func lanesReached(masks []int64) (n int64) {
	for _, m := range masks {
		n += int64(bits.OnesCount64(uint64(m)))
	}
	return n
}

// argmax returns the first index of the largest positive score and the
// score, or 0 and 0.
func argmax(scores []float64) (arg int, max float64) {
	for i, s := range scores {
		if s > max {
			arg, max = i, s
		}
	}
	return arg, max
}

// topK returns the indices of the k largest scores, formatted.
func topK(scores []float64, k int) []string {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]string, min(k, len(idx)))
	for i := range out {
		out[i] = fmt.Sprintf("%d:%.4g", idx[i], scores[idx[i]])
	}
	return out
}
