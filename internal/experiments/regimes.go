package experiments

import (
	"fmt"
	"io"
	"strconv"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// regimePhase is one phase's diagnosis.
type regimePhase struct {
	Name    string
	Index   int
	Regime  machine.Regime
	Share   float64 // dominant bound's share of the phase's cycles
	Seconds float64
}

// regimeResult diagnoses which machine bound dominates every phase of the
// paper's kernels — the quantitative form of the paper's per-iteration
// scalability arguments ("as the number of active vertices becomes small,
// the parallelism that can be exposed also becomes small").
type regimeResult struct {
	Procs int
	// Kernels are BSP CC, GraphCT CC, BSP BFS and GraphCT BFS.
	Kernels []regimeKernel
}

// regimeKernel is one kernel's diagnosis: its title, CSV name and phases.
type regimeKernel struct {
	title, name string
	phases      []regimePhase
}

// regimes runs CC and BFS in both models and diagnoses every recorded
// phase under the analytic model.
func regimes(g *graph.Graph, s Setup) (*regimeResult, error) {
	analytic, ok := s.Model.(*machine.Analytic)
	if !ok {
		analytic = machine.NewAnalytic(machine.DefaultConfig())
	}
	res := &regimeResult{Procs: s.Procs}
	diagnose := func(title, name string, phases []*trace.Phase) {
		k := regimeKernel{title: title, name: name}
		for _, p := range phases {
			r, share := analytic.Diagnose(p, s.Procs)
			k.phases = append(k.phases, regimePhase{
				Name:    p.Name,
				Index:   p.Index,
				Regime:  r,
				Share:   share,
				Seconds: analytic.Config().Seconds(analytic.PhaseCycles(p, s.Procs)),
			})
		}
		res.Kernels = append(res.Kernels, k)
	}

	rec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, rec, s.Engine...); err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	diagnose("BSP connected components", "bsp_cc", rec.PhasesNamed("bsp/superstep"))
	rec = trace.NewRecorder()
	graphct.ConnectedComponents(g, rec)
	diagnose("GraphCT connected components", "graphct_cc", rec.Phases())

	src := g.MaxDegreeVertex()
	rec = trace.NewRecorder()
	if _, err := bspalg.BFS(g, src, rec, s.Engine...); err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	diagnose("BSP breadth-first search", "bsp_bfs", rec.PhasesNamed("bsp/superstep"))
	rec = trace.NewRecorder()
	graphct.BFS(g, src, rec)
	diagnose("GraphCT breadth-first search", "graphct_bfs", rec.Phases())
	return res, nil
}

// render prints the diagnosis.
func (r *regimeResult) render(w io.Writer) {
	fmt.Fprintf(w, "REGIME DIAGNOSIS at %d processors (dominant bound per phase)\n", r.Procs)
	for _, k := range r.Kernels {
		fmt.Fprintf(w, "%s:\n", k.title)
		for _, p := range k.phases {
			fmt.Fprintf(w, "  %-16s[%2d] %-14s (%.0f%% of phase, %.6fs)\n",
				p.Name, p.Index, p.Regime, 100*p.Share, p.Seconds)
		}
	}
}

// csv emits one row per diagnosed phase.
func (r *regimeResult) csv() ([]string, [][]string) {
	var rows [][]string
	for _, k := range r.Kernels {
		for _, p := range k.phases {
			rows = append(rows, []string{k.name, p.Name, strconv.Itoa(p.Index), string(p.Regime), ftoa(p.Share), ftoa(p.Seconds)})
		}
	}
	return []string{"kernel", "phase", "index", "regime", "share", "seconds"}, rows
}
