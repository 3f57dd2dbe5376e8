package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSV emitters, so every experiment's numbers can be re-plotted with any
// external tool: one file per experiment, one row per x-axis point or
// named value, one column per series — the layout gnuplot and pandas both
// ingest directly. Experiments of one shape share one emitter.

// writeCSV writes r's CSV to path, creating its directory.
func writeCSV(path string, r result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	header, rows := r.csv()
	cw := csv.NewWriter(f)
	err = cw.Write(header)
	if err == nil {
		err = cw.WriteAll(rows)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func itoa(v int64) string   { return strconv.FormatInt(v, 10) }

// pairCSV is the CSV of a BSP-vs-GraphCT table: one row per algorithm pair.
func pairCSV(rows []pairRow) ([]string, [][]string) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Algorithm, ftoa(r.BSP), ftoa(r.GraphCT), ftoa(r.Ratio)})
	}
	return []string{"algorithm", "bsp_s", "graphct_s", "ratio"}, out
}

// series is one named [level][proc] series of a processor sweep.
type series struct {
	name  string
	times [][]float64
}

// levelCSV is the CSV of per-level series over a processor sweep: one row
// per (series, level), one column per processor count.
func levelCSV(procs []int, ss ...series) ([]string, [][]string) {
	header := []string{"model", "level"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("t_%dp", p))
	}
	var rows [][]string
	for _, s := range ss {
		for lvl, times := range s.times {
			row := []string{s.name, strconv.Itoa(lvl)}
			for _, t := range times {
				row = append(row, ftoa(t))
			}
			rows = append(rows, row)
		}
	}
	return header, rows
}

// nameValueCSV is the CSV of a scalar summary: one name,value row per pair
// of kv, a name followed by its value.
func nameValueCSV(kv ...any) ([]string, [][]string) {
	var rows [][]string
	for i := 0; i < len(kv); i += 2 {
		v := fmt.Sprint(kv[i+1])
		if f, ok := kv[i+1].(float64); ok {
			v = ftoa(f)
		}
		rows = append(rows, []string{kv[i].(string), v})
	}
	return []string{"name", "value"}, rows
}

func (r *table1Result) csv() ([]string, [][]string) { return pairCSV(r.Rows) }

// csv emits Figure 1's per-iteration times: one row per iteration, one
// column per (model, processor count) pair.
func (r *fig1Result) csv() ([]string, [][]string) {
	header := []string{"iteration"}
	for _, m := range []string{"bsp", "graphct"} {
		for _, p := range r.Procs {
			header = append(header, fmt.Sprintf("%s_%dp", m, p))
		}
	}
	var rows [][]string
	for it := 0; it < max(len(r.BSP), len(r.GraphCT)); it++ {
		row := []string{strconv.Itoa(it)}
		for _, times := range [][][]float64{r.BSP, r.GraphCT} {
			for pi := range r.Procs {
				v := ""
				if it < len(times) {
					v = ftoa(times[it][pi])
				}
				row = append(row, v)
			}
		}
		rows = append(rows, row)
	}
	return header, rows
}

// csv emits Figure 2: level, frontier, messages.
func (r *fig2Result) csv() ([]string, [][]string) {
	var rows [][]string
	for s := 0; s < len(r.Messages); s++ {
		var f int64
		if s < len(r.Frontier) {
			f = r.Frontier[s]
		}
		rows = append(rows, []string{strconv.Itoa(s), itoa(f), itoa(r.Messages[s])})
	}
	return []string{"level", "frontier", "messages"}, rows
}

func (r *fig3Result) csv() ([]string, [][]string) {
	return levelCSV(r.Procs, series{"bsp", r.BSP}, series{"graphct", r.GraphCT})
}

// csv emits Figure 4: procs, bsp, graphct.
func (r *fig4Result) csv() ([]string, [][]string) {
	var rows [][]string
	for i, p := range r.Procs {
		rows = append(rows, []string{strconv.Itoa(p), ftoa(r.BSP[i]), ftoa(r.GraphCT[i])})
	}
	return []string{"procs", "bsp", "graphct"}, rows
}

func (r *auxResult) csv() ([]string, [][]string) {
	return nameValueCSV(
		"bsp_cc_supersteps", r.BSPCCSupersteps, "graphct_cc_iterations", r.GraphCTCCIterations,
		"tc_candidates", r.Candidates, "triangles", r.Triangles,
		"bsp_writes", r.BSPWrites, "graphct_writes", r.GraphCTWrites, "write_ratio", r.WriteRatio,
		"bfs_messages", r.BFSMessages, "bfs_frontier", r.BFSFrontier, "message_excess", r.MessageExcess)
}
