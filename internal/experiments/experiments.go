// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (total execution times, BSP vs GraphCT), Figure 1
// (connected components time per iteration across processor counts),
// Figure 2 (BFS frontier size vs BSP messages per level), Figure 3 (BFS
// per-level scalability), Figure 4 (triangle counting scalability), and the
// auxiliary counts the text quotes (superstep counts, candidate-message and
// write blowups).
//
// Each experiment runs the real kernels once on the host, collects their
// work profiles, and evaluates the profiles under the machine model at any
// processor count — profiles are processor-independent, so one execution
// yields the whole scaling curve deterministically.
package experiments

import (
	"fmt"
	"slices"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// Setup fixes an experiment configuration.
type Setup struct {
	// Scale and EdgeFactor parameterize the RMAT workload. The paper's
	// graph is scale 24, edge factor 16 (16.7M vertices, 268M edges); the
	// default downscales to scale 16 so the full suite, including the
	// wedge-heavy triangle counting, runs on a laptop. See EXPERIMENTS.md.
	Scale      int
	EdgeFactor int
	// Seed selects the deterministic RMAT instance.
	Seed uint64
	// Procs is the machine size evaluated for headline numbers (128 in
	// the paper); scaling figures sweep 8..Procs.
	Procs int
	// Engine holds the options every BSP pass an experiment performs
	// takes: xmtbench's run supervisor (see docs/ROBUSTNESS.md; off by
	// default, since the retry snapshot costs one state copy per superstep
	// boundary) and its observability sink.
	Engine []core.Option
	// Sources are the msbfs experiment's BFS sources; nil selects 64
	// stride-spread ones.
	Sources []int64

	// model evaluates every work profile: the analytic model of the
	// paper's PNNL Cray XMT, built by withDefaults.
	model *machine.Analytic
}

// run is one engine pass named name under the setup's Engine options.
func (s Setup) run(name string, cfg core.Config) (*core.Result, error) {
	for _, o := range s.Engine {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return res, nil
}

func (s Setup) withDefaults() Setup {
	if s.Scale == 0 {
		s.Scale = 16
	}
	if s.EdgeFactor == 0 {
		s.EdgeFactor = 16
	}
	if s.Procs == 0 {
		s.Procs = 128
	}
	s.model = machine.NewAnalytic(machine.DefaultConfig())
	return s
}

// BuildGraph generates the experiment's RMAT input.
func BuildGraph(s Setup) (*graph.Graph, error) {
	s = s.withDefaults()
	return gen.RMAT(gen.RMATConfig{Scale: s.Scale, EdgeFactor: s.EdgeFactor, Seed: s.Seed})
}

// pairRow is one line of Table I or of the extensions table.
type pairRow struct {
	Algorithm string
	BSP       float64 // seconds at Setup.Procs
	GraphCT   float64 // seconds at Setup.Procs
	Ratio     float64 // BSP / GraphCT
}

// table1Result reproduces Table I plus the iteration counts the text
// quotes alongside it.
type table1Result struct {
	procs int
	Rows  []pairRow
	// BSPCCSupersteps vs GraphCTCCIterations: the ">= factor of two"
	// iteration gap (13 vs 6 in the paper).
	BSPCCSupersteps     int
	GraphCTCCIterations int
}

// pair is one Table I-style comparison: kernel bsp's BSP runner timed
// against kernel twin's GraphCT twin; gap, when set, names the pair in
// the extensions table's iteration gaps.
type pair struct{ title, bsp, twin, gap string }

// table1Pairs are the paper's three pairs. Triangle counting runs the
// streaming evaluator: the engine's cost profile without materializing
// the wedges.
var table1Pairs = []pair{
	{"Connected Components", "cc", "cc", ""},
	{"Breadth-first Search", "bfs", "bfs", ""},
	{"Triangle Counting", "tc-streaming", "tc", ""},
}

// table1 runs the paper's three algorithm pairs on g and returns the table.
func table1(g *graph.Graph, s Setup) (*table1Result, error) {
	rows, steps, err := s.runPairs(g, table1Pairs, bspalg.Params{})
	if err != nil {
		return nil, err
	}
	return &table1Result{procs: s.Procs, Rows: rows, BSPCCSupersteps: steps[0][0], GraphCTCCIterations: steps[0][1]}, nil
}

// runPairs runs each pair's two models from the max-degree vertex of the
// pair's input under p, checks their answers agree where the kernel's are
// exact, and returns the table rows and each pair's BSP supersteps and
// GraphCT iterations. A kernel that reads weights runs on a weighted copy
// of g (weights in [1,10] derived from s.Seed).
func (s Setup) runPairs(g *graph.Graph, pairs []pair, p bspalg.Params) ([]pairRow, [][2]int, error) {
	var rows []pairRow
	var steps [][2]int
	for _, pr := range pairs {
		k, twin := bspalg.Lookup(pr.bsp), bspalg.Lookup(pr.twin)
		in := g
		if k.Reads&bspalg.Weights != 0 {
			edges := g.EdgeList()
			var err error
			if in, err = graph.Build(g.NumVertices(), edges, graph.BuildOptions{
				Weights: gen.UniformWeights(len(edges), 10, s.Seed)}); err != nil {
				return nil, nil, err
			}
		}
		p.Source = in.MaxDegreeVertex()
		bspRec := trace.NewRecorder()
		b, err := k.BSP(in, p, bspRec, s.Engine...)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: bsp %s: %w", pr.bsp, err)
		}
		ctRec := trace.NewRecorder()
		c, _ := twin.Twin(in, p, ctRec) // twins never fail
		if twin.Exact && !slices.Equal(b.Answer, c.Answer) {
			return nil, nil, fmt.Errorf("experiments: %s: the BSP and GraphCT answers differ", pr.title)
		}
		r := pairRow{Algorithm: pr.title, BSP: machine.Seconds(s.model, bspRec.Phases(), s.Procs),
			GraphCT: machine.Seconds(s.model, ctRec.Phases(), s.Procs)}
		if r.GraphCT > 0 {
			r.Ratio = r.BSP / r.GraphCT
		}
		rows, steps = append(rows, r), append(steps, [2]int{b.Steps, c.Steps})
	}
	return rows, steps, nil
}

// procSweep is BSP beside GraphCT over a processor sweep: BSP[s][i] is
// BSP superstep s's time at Procs[i], GraphCT[k][i] that of GraphCT
// iteration or level k, and the totals are at Setup.Procs.
type procSweep struct {
	Procs                  []int
	BSP, GraphCT           [][]float64
	BSPTotal, GraphCTTotal float64
}

// sweepOf evaluates bsp's supersteps and ct's phases named ctPhase over
// s's processor sweep.
func (s Setup) sweepOf(bsp, ct *trace.Recorder, ctPhase string) procSweep {
	procs := machine.ProcSweep(s.Procs)
	b, c := bsp.Phases(), ct.PhasesNamed(ctPhase)
	return procSweep{
		Procs:        procs,
		BSP:          stepTimes(s.model, b, procs, true),
		GraphCT:      stepTimes(s.model, c, procs, false),
		BSPTotal:     machine.Seconds(s.model, b, s.Procs),
		GraphCTTotal: machine.Seconds(s.model, c, s.Procs),
	}
}

// stepTimes evaluates phases at every processor count of procs: t[k][i]
// is step k's time at procs[i]. perIndex sums the phases that share an
// Index into one step, as a BSP superstep's scan and compute regions
// are; otherwise each phase is a step.
func stepTimes(m *machine.Analytic, phases []*trace.Phase, procs []int, perIndex bool) [][]float64 {
	var t [][]float64
	for i, p := range procs {
		for k, sec := range machine.PhaseSeconds(m, phases, p) {
			if perIndex {
				k = phases[k].Index
			}
			for k >= len(t) {
				t = append(t, make([]float64, len(procs)))
			}
			t[k][i] += sec
		}
	}
	return t
}

// fig1Result reproduces Figure 1: connected-components execution time per
// iteration, one curve per processor count, for both models.
type fig1Result struct{ procSweep }

// fig1 runs both connected-components kernels and evaluates per-iteration
// times across the processor sweep.
func fig1(g *graph.Graph, s Setup) (*fig1Result, error) {
	bspRec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, bspRec, s.Engine...); err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	ctRec := trace.NewRecorder()
	graphct.ConnectedComponents(g, ctRec)
	return &fig1Result{s.sweepOf(bspRec, ctRec, "cc/iter")}, nil
}

// fig2Result reproduces Figure 2: the true BFS frontier per level against
// the number of BSP messages generated per superstep.
type fig2Result struct {
	Source   int64
	Frontier []int64 // size of level-s frontier (GraphCT's exact frontier)
	Messages []int64 // messages generated by BSP superstep s
}

// fig2 runs BSP BFS and reports frontier vs messages per level.
func fig2(g *graph.Graph, s Setup) (*fig2Result, error) {
	src := g.MaxDegreeVertex()
	bsp, err := bspalg.BFS(g, src, nil, s.Engine...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	return &fig2Result{Source: src, Frontier: bsp.FrontierPerStep, Messages: bsp.MessagesPerStep}, nil
}

// fig3Result reproduces Figure 3: per-level BFS execution time versus
// processor count for both models.
type fig3Result struct {
	Source int64
	procSweep
}

// fig3 runs both BFS kernels and evaluates per-level scalability.
func fig3(g *graph.Graph, s Setup) (*fig3Result, error) {
	src := g.MaxDegreeVertex()
	bspRec := trace.NewRecorder()
	if _, err := bspalg.BFS(g, src, bspRec, s.Engine...); err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	ctRec := trace.NewRecorder()
	graphct.BFS(g, src, ctRec)
	return &fig3Result{src, s.sweepOf(bspRec, ctRec, "bfs/level")}, nil
}

// fig4Result reproduces Figure 4: triangle counting execution time versus
// processor count for both models.
type fig4Result struct {
	Procs   []int
	BSP     []float64
	GraphCT []float64
	// Counts behind the curves.
	Triangles  int64
	Candidates int64
}

// fig4 runs both triangle kernels and evaluates the scaling curves. The
// BSP side is the streaming evaluator, so it makes no engine pass.
func fig4(g *graph.Graph, s Setup) (*fig4Result, error) {
	bspRec := trace.NewRecorder()
	bspTC, err := bspalg.StreamingTriangles(g, bspRec)
	if err != nil {
		return nil, err
	}
	ctRec := trace.NewRecorder()
	ctTC := graphct.Triangles(g, ctRec)
	if bspTC.Count != ctTC.Count {
		return nil, fmt.Errorf("experiments: triangle counts differ: %d vs %d", bspTC.Count, ctTC.Count)
	}
	res := &fig4Result{
		Procs:      machine.ProcSweep(s.Procs),
		Triangles:  bspTC.Count,
		Candidates: bspTC.CandidateMessages,
	}
	for _, p := range res.Procs {
		res.BSP = append(res.BSP, machine.Seconds(s.model, bspRec.Phases(), p))
		res.GraphCT = append(res.GraphCT, machine.Seconds(s.model, ctRec.Phases(), p))
	}
	return res, nil
}

// auxResult collects the counts the paper's text quotes outside tables:
// superstep/iteration gap, message and write blowups.
type auxResult struct {
	// CC iteration gap (paper: 13 BSP supersteps vs 6 shared-memory
	// iterations).
	BSPCCSupersteps, GraphCTCCIterations int
	// Triangle counting counts (paper: 5.5e9 candidates -> 30.9M
	// triangles; 181x writes).
	Candidates, Triangles    int64
	BSPWrites, GraphCTWrites int64
	WriteRatio               float64
	// BFS message excess (paper: messages an order of magnitude above the
	// frontier after the apex).
	BFSMessages, BFSFrontier int64
	MessageExcess            float64
}

// aux computes the auxiliary counts on g.
func aux(g *graph.Graph, s Setup) (*auxResult, error) {
	res := &auxResult{}

	bspCC, err := bspalg.ConnectedComponents(g, nil, s.Engine...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	res.BSPCCSupersteps = bspCC.Supersteps
	res.GraphCTCCIterations = graphct.ConnectedComponents(g, nil).Iterations

	rec := trace.NewRecorder()
	tc, err := bspalg.StreamingTriangles(g, rec)
	if err != nil {
		return nil, err
	}
	res.Candidates = tc.CandidateMessages
	res.Triangles = tc.Count
	// Every BSP message is materialized with SendStoresPerMsg writes; the
	// headline blowup compares raw message writes to GraphCT's one write
	// per triangle, so count one write per message, as the paper does.
	res.BSPWrites = tc.TotalMessages
	res.GraphCTWrites = graphct.Triangles(g, nil).Writes
	if res.GraphCTWrites > 0 {
		res.WriteRatio = float64(res.BSPWrites) / float64(res.GraphCTWrites)
	}

	bfs, err := bspalg.BFS(g, g.MaxDegreeVertex(), nil, s.Engine...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	for _, m := range bfs.MessagesPerStep {
		res.BFSMessages += m
	}
	for _, f := range bfs.FrontierPerStep {
		res.BFSFrontier += f
	}
	if res.BFSFrontier > 0 {
		res.MessageExcess = float64(res.BFSMessages) / float64(res.BFSFrontier)
	}
	return res, nil
}
