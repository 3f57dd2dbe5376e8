package experiments

import (
	"fmt"
	"io"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// RegimePhase is one phase's diagnosis.
type RegimePhase struct {
	Name    string
	Index   int
	Regime  machine.Regime
	Share   float64 // dominant bound's share of the phase's cycles
	Seconds float64
}

// RegimeResult diagnoses which machine bound dominates every phase of the
// paper's kernels — the quantitative form of the paper's per-iteration
// scalability arguments ("as the number of active vertices becomes small,
// the parallelism that can be exposed also becomes small").
type RegimeResult struct {
	Procs  int
	BSPCC  []RegimePhase
	CTCC   []RegimePhase
	BSPBFS []RegimePhase
	CTBFS  []RegimePhase
}

// Regimes runs CC and BFS in both models and diagnoses every recorded
// phase under the analytic model.
func Regimes(g *graph.Graph, s Setup) (*RegimeResult, error) {
	s = s.withDefaults()
	analytic, ok := s.Model.(*machine.Analytic)
	if !ok {
		analytic = machine.NewAnalytic(machine.DefaultConfig())
	}
	res := &RegimeResult{Procs: s.Procs}

	diagnose := func(phases []*trace.Phase) []RegimePhase {
		var out []RegimePhase
		for _, p := range phases {
			r, share := analytic.Diagnose(p, s.Procs)
			out = append(out, RegimePhase{
				Name:    p.Name,
				Index:   p.Index,
				Regime:  r,
				Share:   share,
				Seconds: analytic.Config().Seconds(analytic.PhaseCycles(p, s.Procs)),
			})
		}
		return out
	}

	rec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, rec, s.engineOpts(true)...); err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	res.BSPCC = diagnose(rec.PhasesNamed("bsp/superstep"))

	rec = trace.NewRecorder()
	graphct.ConnectedComponents(g, rec)
	res.CTCC = diagnose(rec.Phases())

	src := g.MaxDegreeVertex()
	rec = trace.NewRecorder()
	if _, err := bspalg.BFS(g, src, rec, s.engineOpts(true)...); err != nil {
		return nil, fmt.Errorf("experiments: bsp bfs: %w", err)
	}
	res.BSPBFS = diagnose(rec.PhasesNamed("bsp/superstep"))

	rec = trace.NewRecorder()
	graphct.BFS(g, src, rec)
	res.CTBFS = diagnose(rec.Phases())
	return res, nil
}

// RenderRegimes prints the diagnosis.
func RenderRegimes(w io.Writer, r *RegimeResult) {
	fmt.Fprintf(w, "REGIME DIAGNOSIS at %d processors (dominant bound per phase)\n", r.Procs)
	sections := []struct {
		name   string
		phases []RegimePhase
	}{
		{"BSP connected components", r.BSPCC},
		{"GraphCT connected components", r.CTCC},
		{"BSP breadth-first search", r.BSPBFS},
		{"GraphCT breadth-first search", r.CTBFS},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "%s:\n", sec.name)
		for _, p := range sec.phases {
			fmt.Fprintf(w, "  %-16s[%2d] %-14s (%.0f%% of phase, %.6fs)\n",
				p.Name, p.Index, p.Regime, 100*p.Share, p.Seconds)
		}
	}
}
