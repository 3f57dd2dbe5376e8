package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles is -compare a.json b.json: a is the base. Per workload and
// end-to-end metric it prints both medians, the delta with its base, the
// bound, and a verdict — "unresolved" when either side's interquartile
// spread is wider than the bound, because then the bound cannot be told
// from noise. An exact per-layer metric that differs is an error: the
// change altered what the program does, not how fast. Exit 0 only when
// every verdict is ok and every exact metric repeats.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	var a, b result
	if err := readJSON(aPath, &a); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := readJSON(bPath, &b); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Quick != b.Env.Quick {
		fmt.Fprintf(stderr, "bench: results are not comparable: seed %d vs %d, quick %v vs %v\n",
			a.Env.Seed, b.Env.Seed, a.Env.Quick, b.Env.Quick)
		return 1
	}
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb.EndToEnd == nil {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", wa.Name, bPath)
			bad++
			continue
		}
		for _, d := range endToEndMetrics {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			v := verdict(d, sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-14s %12.6g %12.6g %+8.1f%% %6.0f%%  %s\n",
				wa.Name, d.name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, 100*d.bound, v)
		}
		v := "ok"
		if wb.FailedFrac > wa.FailedFrac {
			v = "regressed"
			bad++
		}
		fmt.Fprintf(stdout, "%-16s %-14s %12.6g %12.6g %9s %7s  %s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, "", "any", v)
		for _, d := range perLayerMetrics {
			if d.exact && wa.PerLayer != nil && wb.PerLayer != nil && wa.PerLayer[d.name].Median != wb.PerLayer[d.name].Median {
				fmt.Fprintf(stdout, "%-16s %-14s exact metric differs: %v vs %v\n", wa.Name, d.name, wa.PerLayer[d.name].Median, wb.PerLayer[d.name].Median)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows not ok\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric within its bound; every exact metric identical")
	return 0
}

// verdict judges one lower-is-better end-to-end metric of b against base a.
func verdict(d metricDef, a, b stat) string {
	worse := b.Median - a.Median
	switch {
	case worse <= d.floor || worse <= d.bound*a.Median:
		// Within the bound, or under the floor where timer and page
		// granularity outweigh any real difference.
		return "ok"
	case math.Max(a.spread(), b.spread()) > d.bound:
		return "unresolved"
	}
	return "regressed"
}
