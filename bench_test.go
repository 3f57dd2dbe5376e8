// Benchmarks regenerating the paper's evaluation artifacts: one
// sub-benchmark per row of the experiment table (Table I, Figures 1-4,
// the auxiliary counts, extensions, Graph500, MS-BFS, regimes and the
// ablations), each timing the row's kernels, model evaluation, rendering
// and CSV on the host. A row whose CSV is a name,value summary (aux,
// graph500, msbfs, ablation-combiner) reports each numeric value as a
// metric named by its name.
//
// Benchmarks run at scale 13 so `go test -bench=.` completes quickly; the
// committed EXPERIMENTS.md numbers use `cmd/xmtbench` at scale 16 (flags
// go up to the paper's scale 24 given memory and patience).
package graphxmt_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphxmt/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	// The EXPERIMENTS.md workload at a smaller scale.
	s := experiments.Setup{Scale: 13, EdgeFactor: 16, Seed: 1, Procs: 128}
	g, err := experiments.BuildGraph(s)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range experiments.Select("all") {
		b.Run(e.Name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				if err := experiments.Run(io.Discard, g, s, []experiments.Experiment{e}, dir); err != nil {
					b.Fatal(err)
				}
			}
			reportNameValues(b, filepath.Join(dir, e.Name+".csv"))
		})
	}
}

// reportNameValues reports each numeric pair of a name,value CSV as a
// metric; a CSV of any other shape reports nothing.
func reportNameValues(b *testing.B, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	if len(recs) == 0 || strings.Join(recs[0], ",") != "name,value" {
		return
	}
	for _, rec := range recs[1:] {
		if v, err := strconv.ParseFloat(rec[1], 64); err == nil {
			b.ReportMetric(v, rec[0])
		}
	}
}
