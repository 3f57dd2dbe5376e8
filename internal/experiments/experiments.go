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
	"time"

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
	// Model evaluates work profiles; nil selects the analytic model with
	// the default (PNNL Cray XMT) configuration.
	Model machine.Model
	// Direction selects the BSP engine's superstep direction mode for the
	// pull-capable kernels (CC, BFS, label propagation). The zero value is
	// core.DirAuto; core.DirPush is the forced-push A/B control.
	Direction core.DirectionMode
	// Retries, StepTimeout and RunTimeout arm the engine's run supervisor
	// for every BSP pass an experiment performs (see docs/ROBUSTNESS.md).
	// Zero values leave supervision off — the benchmark's default, since
	// the retry snapshot costs one state copy per superstep boundary.
	Retries     int
	StepTimeout time.Duration
	RunTimeout  time.Duration
}

// engineOpts returns the core options every BSP engine pass of an
// experiment shares: direction mode plus, when armed, the supervisor
// knobs.
func (s Setup) engineOpts() []core.Option {
	opts := []core.Option{core.WithDirection(s.Direction)}
	if s.Retries > 0 {
		opts = append(opts, core.WithRetries(s.Retries))
	}
	if s.StepTimeout > 0 {
		opts = append(opts, core.WithStepTimeout(s.StepTimeout))
	}
	if s.RunTimeout > 0 {
		opts = append(opts, core.WithRunTimeout(s.RunTimeout))
	}
	return opts
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
	if s.Model == nil {
		s.Model = machine.NewAnalytic(machine.DefaultConfig())
	}
	return s
}

// BuildGraph generates the experiment's RMAT input.
func BuildGraph(s Setup) (*graph.Graph, error) {
	s = s.withDefaults()
	return gen.RMAT(gen.RMATConfig{Scale: s.Scale, EdgeFactor: s.EdgeFactor, Seed: s.Seed})
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Algorithm string
	BSP       float64 // seconds at Setup.Procs
	GraphCT   float64 // seconds at Setup.Procs
	Ratio     float64 // BSP / GraphCT
}

// Table1Result reproduces Table I plus the iteration counts the text
// quotes alongside it.
type Table1Result struct {
	Rows []Table1Row
	// BSPCCSupersteps vs GraphCTCCIterations: the ">= factor of two"
	// iteration gap (13 vs 6 in the paper).
	BSPCCSupersteps     int
	GraphCTCCIterations int
}

// Table1 runs all three algorithm pairs on g and returns the table.
func Table1(g *graph.Graph, s Setup) (*Table1Result, error) {
	s = s.withDefaults()
	res := &Table1Result{}

	// Connected components.
	bspRec := trace.NewRecorder()
	bspCC, err := bspalg.ConnectedComponents(g, bspRec, s.engineOpts()...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	ctRec := trace.NewRecorder()
	ctCC := graphct.ConnectedComponents(g, ctRec)
	if err := sameLabels(bspCC.Labels, ctCC.Labels); err != nil {
		return nil, err
	}
	res.BSPCCSupersteps = bspCC.Supersteps
	res.GraphCTCCIterations = ctCC.Iterations
	res.Rows = append(res.Rows, row("Connected Components",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))

	// Breadth-first search.
	src := g.MaxDegreeVertex()
	bspRec = trace.NewRecorder()
	bspBFS, err := bspalg.BFS(g, src, bspRec, s.engineOpts()...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	ctRec = trace.NewRecorder()
	ctBFS := graphct.BFS(g, src, ctRec)
	for v := range bspBFS.Dist {
		if bspBFS.Dist[v] != ctBFS.Dist[v] {
			return nil, fmt.Errorf("experiments: bfs mismatch at vertex %d", v)
		}
	}
	res.Rows = append(res.Rows, row("Breadth-first Search",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))

	// Triangle counting (streaming evaluator: identical cost profile to
	// the engine without materializing wedges).
	bspRec = trace.NewRecorder()
	bspTC, err := bspalg.StreamingTriangles(g, bspRec)
	if err != nil {
		return nil, err
	}
	ctRec = trace.NewRecorder()
	ctTC := graphct.Triangles(g, ctRec)
	if bspTC.Count != ctTC.Count {
		return nil, fmt.Errorf("experiments: triangle counts differ: %d vs %d", bspTC.Count, ctTC.Count)
	}
	res.Rows = append(res.Rows, row("Triangle Counting",
		machine.Seconds(s.Model, bspRec.Phases(), s.Procs),
		machine.Seconds(s.Model, ctRec.Phases(), s.Procs)))
	return res, nil
}

func row(name string, bsp, ct float64) Table1Row {
	r := Table1Row{Algorithm: name, BSP: bsp, GraphCT: ct}
	if ct > 0 {
		r.Ratio = bsp / ct
	}
	return r
}

func sameLabels(a, b []int64) error {
	for v := range a {
		if a[v] != b[v] {
			return fmt.Errorf("experiments: component labels diverge at vertex %d", v)
		}
	}
	return nil
}

// Fig1Result reproduces Figure 1: connected-components execution time per
// iteration, one curve per processor count, for both models.
type Fig1Result struct {
	Procs []int
	// BSP[i][s] is the time of BSP superstep s at Procs[i]; GraphCT[i][k]
	// likewise for shared-memory iteration k.
	BSP     [][]float64
	GraphCT [][]float64
	// Totals at the largest processor count.
	BSPTotal, GraphCTTotal float64
}

// Fig1 runs both connected-components kernels and evaluates per-iteration
// times across the processor sweep.
func Fig1(g *graph.Graph, s Setup) (*Fig1Result, error) {
	s = s.withDefaults()
	bspRec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, bspRec, s.engineOpts()...); err != nil {
		return nil, err
	}
	ctRec := trace.NewRecorder()
	graphct.ConnectedComponents(g, ctRec)

	res := &Fig1Result{Procs: machine.ProcSweep(s.Procs)}
	bspPhases := bspRec.Phases() // scan + compute regions, grouped by superstep
	ctPhases := ctRec.PhasesNamed("cc/iter")
	for _, p := range res.Procs {
		res.BSP = append(res.BSP, perIndexSeconds(s.Model, bspPhases, p))
		res.GraphCT = append(res.GraphCT, machine.PhaseSeconds(s.Model, ctPhases, p))
	}
	res.BSPTotal = machine.Seconds(s.Model, bspPhases, s.Procs)
	res.GraphCTTotal = machine.Seconds(s.Model, ctPhases, s.Procs)
	return res, nil
}

// perIndexSeconds sums each phase's simulated time into its Index slot, so
// a superstep's scan and compute regions report as one number.
func perIndexSeconds(m machine.Model, phases []*trace.Phase, procs int) []float64 {
	maxIdx := -1
	for _, p := range phases {
		if p.Index > maxIdx {
			maxIdx = p.Index
		}
	}
	out := make([]float64, maxIdx+1)
	for _, p := range phases {
		out[p.Index] += m.Config().Seconds(m.PhaseCycles(p, procs))
	}
	return out
}

// Fig2Result reproduces Figure 2: the true BFS frontier per level against
// the number of BSP messages generated per superstep.
type Fig2Result struct {
	Source   int64
	Frontier []int64 // size of level-s frontier (GraphCT's exact frontier)
	Messages []int64 // messages generated by BSP superstep s
}

// Fig2 runs BSP BFS and reports frontier vs messages per level.
func Fig2(g *graph.Graph, s Setup) (*Fig2Result, error) {
	src := g.MaxDegreeVertex()
	bsp, err := bspalg.BFS(g, src, nil, s.engineOpts()...)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Source: src, Frontier: bsp.FrontierPerStep}
	res.Messages = bsp.MessagesPerStep
	return res, nil
}

// Fig3Result reproduces Figure 3: per-level BFS execution time versus
// processor count for both models.
type Fig3Result struct {
	Source int64
	Procs  []int
	// BSP[s][i] is the time of BSP superstep s at Procs[i]; GraphCT[l][i]
	// likewise per shared-memory level.
	BSP     [][]float64
	GraphCT [][]float64
	// Totals at the largest processor count.
	BSPTotal, GraphCTTotal float64
}

// Fig3 runs both BFS kernels and evaluates per-level scalability.
func Fig3(g *graph.Graph, s Setup) (*Fig3Result, error) {
	s = s.withDefaults()
	src := g.MaxDegreeVertex()
	bspRec := trace.NewRecorder()
	if _, err := bspalg.BFS(g, src, bspRec, s.engineOpts()...); err != nil {
		return nil, err
	}
	ctRec := trace.NewRecorder()
	graphct.BFS(g, src, ctRec)

	res := &Fig3Result{Source: src, Procs: machine.ProcSweep(s.Procs)}
	bspPhases := bspRec.Phases()
	ctPhases := ctRec.PhasesNamed("bfs/level")
	for _, p := range res.Procs {
		for i, t := range perIndexSeconds(s.Model, bspPhases, p) {
			if i >= len(res.BSP) {
				res.BSP = append(res.BSP, nil)
			}
			res.BSP[i] = append(res.BSP[i], t)
		}
		for i, t := range machine.PhaseSeconds(s.Model, ctPhases, p) {
			if i >= len(res.GraphCT) {
				res.GraphCT = append(res.GraphCT, nil)
			}
			res.GraphCT[i] = append(res.GraphCT[i], t)
		}
	}
	res.BSPTotal = machine.Seconds(s.Model, bspPhases, s.Procs)
	res.GraphCTTotal = machine.Seconds(s.Model, ctPhases, s.Procs)
	return res, nil
}

// Fig4Result reproduces Figure 4: triangle counting execution time versus
// processor count for both models.
type Fig4Result struct {
	Procs   []int
	BSP     []float64
	GraphCT []float64
	// Counts behind the curves.
	Triangles  int64
	Candidates int64
}

// Fig4 runs both triangle kernels and evaluates the scaling curves.
func Fig4(g *graph.Graph, s Setup) (*Fig4Result, error) {
	s = s.withDefaults()
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
	res := &Fig4Result{
		Procs:      machine.ProcSweep(s.Procs),
		Triangles:  bspTC.Count,
		Candidates: bspTC.CandidateMessages,
	}
	for _, p := range res.Procs {
		res.BSP = append(res.BSP, machine.Seconds(s.Model, bspRec.Phases(), p))
		res.GraphCT = append(res.GraphCT, machine.Seconds(s.Model, ctRec.Phases(), p))
	}
	return res, nil
}

// AuxResult collects the counts the paper's text quotes outside tables:
// superstep/iteration gap, message and write blowups.
type AuxResult struct {
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

// Aux computes the auxiliary counts on g.
func Aux(g *graph.Graph, s Setup) (*AuxResult, error) {
	s = s.withDefaults()
	res := &AuxResult{}

	bspCC, err := bspalg.ConnectedComponents(g, nil, s.engineOpts()...)
	if err != nil {
		return nil, err
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

	bfs, err := bspalg.BFS(g, g.MaxDegreeVertex(), nil, s.engineOpts()...)
	if err != nil {
		return nil, err
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
