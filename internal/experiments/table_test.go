package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/core"
)

// rowWant is what TestTableRows expects of one row: its CSV header's
// prefix, substrings of its text and, when set, its number of CSV data
// rows, computed from the row's own result.
type rowWant struct {
	header string
	text   []string
	rows   func(r result) int
}

func rowsOf(n int) func(result) int { return func(result) int { return n } }

var rowWants = map[string]rowWant{
	"table1": {"algorithm,bsp_s,graphct_s,ratio", []string{"TABLE I", "Triangle Counting"}, rowsOf(len(table1Pairs))},
	"fig1": {"iteration,bsp_8p,", []string{"FIGURE 1", "128P"},
		func(r result) int { f := r.(*fig1Result); return max(len(f.BSP), len(f.GraphCT)) }},
	"fig2": {"level,frontier,messages", []string{"FIGURE 2"}, func(r result) int { return len(r.(*fig2Result).Messages) }},
	"fig3": {"model,level,t_8p,", []string{"FIGURE 3", "128P"},
		func(r result) int { f := r.(*fig3Result); return len(f.BSP) + len(f.GraphCT) }},
	"fig4":       {"procs,bsp,graphct", []string{"FIGURE 4"}, func(r result) int { return len(r.(*fig4Result).Procs) }},
	"aux":        {"name,value", []string{"AUXILIARY COUNTS", "181x"}, rowsOf(10)},
	"extensions": {"algorithm,bsp_s,graphct_s,ratio", []string{"EXTENSIONS", "SSSP (weighted)"}, rowsOf(len(extensionPairs))},
	"graph500":   {"name,value", []string{"GRAPH500-style (GraphCT)", "GRAPH500-style (BSP)"}, rowsOf(12)},
	"msbfs":      {"name,value", []string{"MS-BFS batched queries"}, rowsOf(7)},
	"regimes":    {"kernel,phase,index,regime,share,seconds", []string{"REGIME DIAGNOSIS"}, nil},
	"ablation-activation": {"model,level,t_8p,", []string{"sparse activation"},
		func(r result) int { a := r.(*activationResult); return len(a.FullScan) + len(a.Sparse) }},
	"ablation-hotspot":     {"chunk,t_128p,speedup", []string{"chunk"}, rowsOf(5)},
	"ablation-combiner":    {"name,value", []string{"combiner"}, rowsOf(5)},
	"ablation-sensitivity": {"parameter,value,t_128p", []string{"latency"}, rowsOf(9)},
}

// TestTableRows runs every row through Run: each prints its text, the
// wrote line and a blank line, and writes <name>.csv with the expected
// header and, every record as wide as the header, the expected data rows.
func TestTableRows(t *testing.T) {
	g, s := testGraph(t)
	for _, e := range Select("all") {
		t.Run(e.Name, func(t *testing.T) {
			want, ok := rowWants[e.Name]
			if !ok {
				t.Fatal("no expectations for this row")
			}
			dir := t.TempDir()
			var out bytes.Buffer
			if err := Run(&out, g, s, []Experiment{e}, dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, e.Name+".csv")
			text := out.String()
			if !strings.HasSuffix(text, "wrote "+path+"\n\n") || strings.HasPrefix(text, "wrote ") {
				t.Errorf("stdout does not end in its text, the wrote line and a blank line:\n%s", text)
			}
			for _, sub := range want.text {
				if !strings.Contains(text, sub) {
					t.Errorf("text lacks %q:\n%s", sub, text)
				}
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			recs, err := csv.NewReader(f).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < 2 {
				t.Fatalf("%s has %d records, want a header and at least one data row", path, len(recs))
			}
			if header := strings.Join(recs[0], ","); !strings.HasPrefix(header, want.header) {
				t.Errorf("header %q, want the prefix %q", header, want.header)
			}
			if want.rows != nil {
				res, err := e.run(g, s)
				if err != nil {
					t.Fatal(err)
				}
				if n := want.rows(res); len(recs)-1 != n {
					t.Errorf("%d data rows, want %d", len(recs)-1, n)
				}
			}
		})
	}
}

func TestSelect(t *testing.T) {
	names := func(exps []Experiment) (out []string) {
		for _, e := range exps {
			out = append(out, e.Name)
		}
		return out
	}
	for _, tc := range []struct{ exp, want string }{
		{"all", "table1 fig1 fig2 fig3 fig4 aux extensions graph500 msbfs regimes " +
			"ablation-activation ablation-hotspot ablation-combiner ablation-sensitivity"},
		{"FIG2", "fig2"},
		{"ablation", "ablation-activation ablation-hotspot ablation-combiner ablation-sensitivity"},
		{"ablation-combiner", "ablation-combiner"},
		{"fig9", ""},
		{"ablation-", ""},
	} {
		if got := strings.Join(names(Select(tc.exp)), " "); got != tc.want {
			t.Errorf("Select(%q) = %q, want %q", tc.exp, got, tc.want)
		}
	}
}

// TestTable1Procs: Table I's title names the processor count its times
// are evaluated at.
func TestTable1Procs(t *testing.T) {
	g, s := testGraph(t)
	s.Procs = 64
	var out bytes.Buffer
	if err := Run(&out, g, s, Select("table1"), ""); err != nil {
		t.Fatal(err)
	}
	if title := "TABLE I: EXECUTION TIMES (simulated Cray XMT, 64 processors)\n"; !strings.HasPrefix(out.String(), title) {
		t.Errorf("output does not start with %q:\n%s", title, out.String())
	}
}

// TestSupervisionReachesEveryPass: the supervisor knobs reach every engine
// pass a row makes, so a run deadline no pass can meet stops each row in
// its first pass with a typed error naming that pass. fig4 makes no engine
// pass.
func TestSupervisionReachesEveryPass(t *testing.T) {
	g, s := testGraph(t)
	s.RunTimeout = time.Nanosecond
	first := map[string]string{
		"table1": "bsp cc", "fig1": "bsp cc", "fig2": "bsp bfs", "fig3": "bsp bfs", "fig4": "",
		"aux": "bsp cc", "extensions": "bsp kcore", "graph500": "graph500 bsp", "msbfs": "bsp msbfs",
		"regimes": "bsp cc", "ablation-activation": "full-scan bfs", "ablation-hotspot": "bfs chunk=1",
		"ablation-combiner": "plain cc", "ablation-sensitivity": "bsp cc",
	}
	for _, e := range table {
		t.Run(e.Name, func(t *testing.T) {
			pass, ok := first[e.Name]
			if !ok {
				t.Fatal("no expected first pass for this row")
			}
			_, err := e.run(g, s)
			if pass == "" {
				if err != nil {
					t.Fatalf("a row without engine passes failed: %v", err)
				}
				return
			}
			var te *core.TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("error %v, want a *core.TimeoutError", err)
			}
			if !strings.Contains(err.Error(), "experiments: "+pass+": ") {
				t.Errorf("error %q does not name the first pass, %s", err, pass)
			}
		})
	}
}
