// Command benchgate compares two sets of Go benchmark results and fails
// when any benchmark's median ns/op regressed beyond a threshold. It is the
// CI regression gate for the engine benchmarks: a run of the merge-base on
// the same machine is -old, the PR head's run is -new. A baseline from
// another machine, such as the committed BENCH_core.json, is a valid input
// but no gate: host differences swamp the threshold.
//
// Both inputs may be plain `go test -bench` text or the `go test -json`
// event stream (sniffed per file). Run benchmarks with -count=5 or more so
// the median has something to chew on; medians make the gate robust to a
// single noisy run, which mean-based gates are not.
//
//	git checkout "$(git merge-base origin/main HEAD)"
//	go test -run '^$' -bench Engine -count 5 ./internal/core/ > base.txt
//	git checkout -
//	go test -run '^$' -bench Engine -count 5 -json ./internal/core/ > new.json
//	benchgate -old base.txt -new new.json -threshold 10
//
// Exit status: 0 when no benchmark regressed past the threshold, 1 on
// regression or malformed input. Benchmarks present in only one input are
// reported but never fail the gate (new benchmarks must not break CI).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	oldPath := flag.String("old", "", "baseline benchmark results (bench text or go test -json)")
	newPath := flag.String("new", "", "candidate benchmark results (bench text or go test -json)")
	threshold := flag.Float64("threshold", 10, "maximum allowed median regression, percent")
	filter := flag.String("filter", "", "only gate benchmarks whose name matches this regexp")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -old <file> -new <file> [-threshold pct] [-filter re]")
		os.Exit(2)
	}
	if err := gate(os.Stdout, *oldPath, *newPath, *threshold, *filter); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func gate(w io.Writer, oldPath, newPath string, thresholdPct float64, filter string) error {
	var re *regexp.Regexp
	if filter != "" {
		var err error
		if re, err = regexp.Compile(filter); err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
	}
	oldRes, err := parseFile(oldPath)
	if err != nil {
		return err
	}
	newRes, err := parseFile(newPath)
	if err != nil {
		return err
	}
	rows, regressed := compare(oldRes, newRes, thresholdPct, re)
	printRows(w, rows, thresholdPct)
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), thresholdPct, strings.Join(regressed, ", "))
	}
	return nil
}

// benchLine matches a benchmark result line:
//
//	BenchmarkEngineDenseFlood-8   100   123456 ns/op   64 B/op   2 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so results from machines with
// different core counts still pair up.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// benchResult matches a bare metrics fragment ("3  158265083 ns/op ...").
// go test -json splits each benchmark line across events: the name lands in
// the event's Test field and the metrics arrive as their own Output fragment.
var benchResult = regexp.MustCompile(`^\d+\s+([0-9.]+) ns/op`)

// parseFile reads either plain bench text or a `go test -json` event stream
// and returns ns/op samples keyed by benchmark name. Repeated runs of the
// same benchmark (-count=N) accumulate as separate samples.
func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return res, nil
}

func parse(r io.Reader) (map[string][]float64, error) {
	res := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			// go test -json: benchmark results arrive as Output events,
			// one line fragment per event.
			var ev struct {
				Action string `json:"Action"`
				Test   string `json:"Test"`
				Output string `json:"Output"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("bad test2json line: %w", err)
			}
			if ev.Action != "output" {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
			if ev.Test != "" {
				// Name-in-Test-field form: the Output fragment holds only the
				// metrics. Sub-benchmark paths stay in the name, matching the
				// text form after its -N suffix strip.
				if m := benchResult.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
					if ns, err := strconv.ParseFloat(m[1], 64); err == nil {
						res[ev.Test] = append(res[ev.Test], ns)
					}
					continue
				}
			}
		}
		addSample(res, strings.TrimSpace(line))
	}
	return res, sc.Err()
}

func addSample(res map[string][]float64, line string) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return
	}
	ns, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		return
	}
	res[m[1]] = append(res[m[1]], ns)
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type row struct {
	name     string
	oldNs    float64 // median; 0 means absent on that side
	newNs    float64
	deltaPct float64
	verdict  string
}

// compare pairs benchmarks by name and flags any whose candidate median
// exceeds the baseline median by more than thresholdPct percent. Unpaired
// benchmarks get an informational row only.
func compare(oldRes, newRes map[string][]float64, thresholdPct float64, filter *regexp.Regexp) ([]row, []string) {
	names := make(map[string]bool, len(oldRes)+len(newRes))
	for n := range oldRes {
		names[n] = true
	}
	for n := range newRes {
		names[n] = true
	}
	var rows []row
	var regressed []string
	for name := range names {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		r := row{name: name}
		o, haveOld := oldRes[name]
		n, haveNew := newRes[name]
		switch {
		case !haveOld:
			r.newNs, r.verdict = median(n), "new"
		case !haveNew:
			r.oldNs, r.verdict = median(o), "removed"
		default:
			r.oldNs, r.newNs = median(o), median(n)
			r.deltaPct = (r.newNs/r.oldNs - 1) * 100
			r.verdict = "ok"
			if r.deltaPct > thresholdPct {
				r.verdict = "REGRESSED"
				regressed = append(regressed, name)
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	sort.Strings(regressed)
	return rows, regressed
}

func printRows(w io.Writer, rows []row, thresholdPct float64) {
	fmt.Fprintf(w, "%-50s %14s %14s %8s  %s\n", "benchmark", "old median", "new median", "delta", "gate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-50s %14s %14s %8s  %s\n",
			r.name, fmtNs(r.oldNs), fmtNs(r.newNs), fmtDelta(r), r.verdict)
	}
	fmt.Fprintf(w, "threshold: +%.0f%% on median ns/op\n", thresholdPct)
}

func fmtNs(ns float64) string {
	switch {
	case ns == 0:
		return "-"
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

func fmtDelta(r row) string {
	if r.oldNs == 0 || r.newNs == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", r.deltaPct)
}
