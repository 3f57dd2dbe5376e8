package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"graphxmt/internal/graph"
)

// The experiment table: one row per experiment, in the order -exp all
// runs them. xmtbench's dispatch, -exp usage, unknown-name check and -csv
// files are all read from the rows, and a row's text and CSV come from one
// result, so they cannot drift.

// result is what one experiment produced.
type result interface {
	// render writes the text xmtbench prints.
	render(w io.Writer)
	// csv returns the header and rows of the experiment's CSV file.
	csv() (header []string, rows [][]string)
}

// Experiment is one row of the table.
type Experiment struct {
	// Name is the row's -exp value and its CSV file's base name. A name
	// "group-x" also runs under -exp group.
	Name string
	// Doc says in one line what the row regenerates.
	Doc string
	run func(*graph.Graph, Setup) (result, error)
}

// row declares the experiment whose run returns R.
func row[R result](name, doc string, run func(*graph.Graph, Setup) (R, error)) Experiment {
	return Experiment{Name: name, Doc: doc, run: func(g *graph.Graph, s Setup) (result, error) { return run(g, s) }}
}

var table = []Experiment{
	row("table1", "Table I: total time of CC, BFS and TC, BSP vs GraphCT", table1),
	row("fig1", "Figure 1: CC time per iteration across processor counts", fig1),
	row("fig2", "Figure 2: BFS frontier size vs BSP messages per level", fig2),
	row("fig3", "Figure 3: BFS time per level across processor counts", fig3),
	row("fig4", "Figure 4: TC time across processor counts", fig4),
	row("aux", "the counts the text quotes: CC iteration gap, TC write blowup, BFS message excess", aux),
	row("extensions", "Table I's method on k-core, label propagation, betweenness and SSSP", extensions),
	row("graph500", "Graph500-style BFS: sampled keys, validated trees, TEPS in both models", graph500Pair),
	row("msbfs", "64 BFS queries in one batched MS-BFS pass vs one pass each", msbfs),
	row("regimes", "the machine bound that dominates each CC and BFS phase", regimes),
	row("ablation-activation", "full vertex scan vs sparse activation on BSP BFS", ablationActivation),
	row("ablation-hotspot", "fetch-and-add allocation chunk sweep on BSP BFS", ablationHotspot),
	row("ablation-combiner", "min-combiner on and off on BSP CC", ablationCombiner),
	row("ablation-sensitivity", "memory latency and streams-per-processor sweeps over a BSP CC profile", sensitivityMachine),
}

// Select returns the rows -exp name runs, in table order: every row for
// "all", else the row called name or the rows of group name, matched
// without regard to case. It returns nil if name selects nothing.
func Select(name string) []Experiment {
	var out []Experiment
	for _, e := range table {
		group, _, _ := strings.Cut(e.Name, "-")
		if name == "all" || strings.EqualFold(e.Name, name) || strings.EqualFold(group, name) {
			out = append(out, e)
		}
	}
	return out
}

// Usage is -exp's help text: one line per value -exp takes, with its doc:
// "all", then each row in table order, a group before its first row.
func Usage() string {
	var b strings.Builder
	b.WriteString("experiment to run, one of:")
	line := func(name, doc string) { fmt.Fprintf(&b, "\n  %-21s %s", name, doc) }
	line("all", "every row below, in this order")
	groups := map[string]bool{}
	for _, e := range table {
		if group, _, ok := strings.Cut(e.Name, "-"); ok && !groups[group] {
			groups[group] = true
			line(group, "every "+group+"-* row")
		}
		line(e.Name, e.Doc)
	}
	return b.String()
}

// Run runs exps on g under s, in order. Each writes its text to w, then,
// when csvDir is set, its CSV to csvDir/<name>.csv, then a blank line.
func Run(w io.Writer, g *graph.Graph, s Setup, exps []Experiment, csvDir string) error {
	s = s.withDefaults()
	for _, e := range exps {
		res, err := e.run(g, s)
		if err != nil {
			return err
		}
		res.render(w)
		if csvDir != "" {
			path := filepath.Join(csvDir, e.Name+".csv")
			if err := writeCSV(path, res); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", path)
		}
		fmt.Fprintln(w)
	}
	return nil
}
