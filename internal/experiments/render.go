package experiments

import (
	"fmt"
	"io"
)

// render prints Table I in the paper's layout.
func (r *table1Result) render(w io.Writer) {
	fmt.Fprintf(w, "TABLE I: EXECUTION TIMES (simulated Cray XMT, %d processors)\n", r.procs)
	fmt.Fprintln(w, "---------------------------------------------------------------")
	fmt.Fprintf(w, "%-24s %12s %12s %8s\n", "Algorithm", "BSP (s)", "GraphCT (s)", "Ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %12.3f %12.3f %7.1f:1\n", row.Algorithm, row.BSP, row.GraphCT, row.Ratio)
	}
	fmt.Fprintf(w, "\nCC iterations: BSP %d supersteps vs GraphCT %d iterations\n",
		r.BSPCCSupersteps, r.GraphCTCCIterations)
}

// render prints Figure 1's series: per-iteration time for each
// processor count, BSP beside GraphCT.
func (r *fig1Result) render(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 1: Connected components execution time by iteration (seconds)")
	r.renderSweep(w, "iter", 5)
}

// renderSweep prints both series, steps labelled label with digits
// decimals, then the totals.
func (r *procSweep) renderSweep(w io.Writer, label string, digits int) {
	fmt.Fprintln(w, "BSP:")
	renderSteps(w, label, digits, r.Procs, r.BSP)
	fmt.Fprintln(w, "GraphCT:")
	renderSteps(w, label, digits, r.Procs, r.GraphCT)
	fmt.Fprintf(w, "Totals at %d procs: BSP %.3fs, GraphCT %.3fs\n",
		r.Procs[len(r.Procs)-1], r.BSPTotal, r.GraphCTTotal)
}

// renderSteps prints one row per step of times ([step][proc]), one column
// per processor count.
func renderSteps(w io.Writer, label string, digits int, procs []int, times [][]float64) {
	fmt.Fprintf(w, "  %-6s", label)
	for _, p := range procs {
		fmt.Fprintf(w, " %11s", fmt.Sprintf("%dP", p))
	}
	fmt.Fprintln(w)
	for k, ts := range times {
		fmt.Fprintf(w, "  %-6d", k)
		for _, t := range ts {
			fmt.Fprintf(w, " %11.*f", digits, t)
		}
		fmt.Fprintln(w)
	}
}

// render prints Figure 2's two series per level.
func (r *fig2Result) render(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 2: BFS frontier size vs BSP messages per level")
	fmt.Fprintf(w, "source vertex: %d\n", r.Source)
	fmt.Fprintf(w, "  %-6s %14s %14s %8s\n", "level", "frontier", "messages", "ratio")
	for s := 0; s < len(r.Messages); s++ {
		var f int64
		if s < len(r.Frontier) {
			f = r.Frontier[s]
		}
		ratio := "-"
		if s+1 < len(r.Frontier) && r.Frontier[s+1] > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(r.Messages[s])/float64(r.Frontier[s+1]))
		}
		fmt.Fprintf(w, "  %-6d %14d %14d %8s\n", s, f, r.Messages[s], ratio)
	}
	fmt.Fprintln(w, "ratio = messages sent at level s / true next frontier")
}

// render prints Figure 3: per-level time against processor count.
func (r *fig3Result) render(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 3: BFS per-level scalability (seconds)")
	fmt.Fprintf(w, "source vertex: %d\n", r.Source)
	r.renderSweep(w, "level", 6)
}

// render prints Figure 4's two scaling curves.
func (r *fig4Result) render(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 4: Triangle counting scalability (seconds)")
	fmt.Fprintf(w, "triangles: %d, candidate messages: %d\n", r.Triangles, r.Candidates)
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "procs", "BSP", "GraphCT")
	for i, p := range r.Procs {
		fmt.Fprintf(w, "  %-8d %12.3f %12.3f\n", p, r.BSP[i], r.GraphCT[i])
	}
}

// render prints the auxiliary counts.
func (r *auxResult) render(w io.Writer) {
	fmt.Fprintln(w, "AUXILIARY COUNTS")
	fmt.Fprintf(w, "  CC: BSP %d supersteps vs GraphCT %d iterations (paper: 13 vs 6)\n",
		r.BSPCCSupersteps, r.GraphCTCCIterations)
	fmt.Fprintf(w, "  TC: %d candidate messages -> %d triangles (paper: 5.5e9 -> 30.9M)\n",
		r.Candidates, r.Triangles)
	fmt.Fprintf(w, "  TC writes: BSP %d vs GraphCT %d = %.0fx (paper: 181x)\n",
		r.BSPWrites, r.GraphCTWrites, r.WriteRatio)
	fmt.Fprintf(w, "  BFS: %d messages vs %d frontier vertices = %.1fx excess\n",
		r.BFSMessages, r.BFSFrontier, r.MessageExcess)
}
