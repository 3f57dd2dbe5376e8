// Command bench is the repository's end-to-end + per-layer benchmark: the
// ruler every later performance or simplification change is judged by. It
// measures the system from outside — timing calls into the layers' public
// functions and handing the engine a benchmark-owned obs.Sink — so adding
// it changes no engine code. See README.md in this directory.
//
//	go run ./bench -seed 1 -out result.json          every workload, one child process each
//	go run ./bench -workload grid_relay -trace 1     one workload in this process
//	go run ./bench -compare a.json b.json            A/B verdicts against the metric bounds
//
// One-workload mode is also the builder contract's entry point
// (BENCHMARK.json): its last stdout line is a single JSON object holding
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags. The contract passes --workload, --seed,
// --seconds and --trace; the rest serve the all-workloads and compare modes.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	traceOut string
	compare  bool
	quick    bool
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, one child process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 8, "measuring time per workload, split across the w=N, w=1 and traced session blocks")
	fs.IntVar(&o.trace, "trace", 1, "1 = also run traced sessions and report per-layer metrics; 0 = end-to-end metrics only")
	fs.StringVar(&o.out, "out", "", "write the full result (environment, every metric with median/q1/q3/n) to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced sessions' spans to this file as JSON lines")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs, two sessions per block, all workloads in this process (the smoke test's size)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for fixtures and checkpoints; a private subdirectory is created and removed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments, non-positive -seconds, or -trace outside {0,1}")
		return 2
	}
	if o.quick {
		o.seconds = 0 // every block runs its minimum number of sessions
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if o.workload != "" {
		return runOne(o, dir, stdout, stderr)
	}
	return runAll(o, dir, stdout, stderr)
}

// runOne measures one workload in this process and ends stdout with the
// contract's result line.
func runOne(o options, dir string, stdout, stderr io.Writer) int {
	wr, tr, err := runWorkload(runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds,
		traced: o.trace == 1, sizes: sizesFor(o.quick), dir: dir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := &result{Env: captureEnv(o, wr), Workloads: []*workloadResult{wr}}
	if err := writeOutputs(o, res, tr.spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printWorkload(stdout, wr, o.trace == 1)
	for _, f := range wr.Failures {
		fmt.Fprintln(stderr, "bench: FAILED CHECK:", f)
	}

	set := wr.EndToEnd
	defs := endToEndMetrics
	if o.trace == 1 {
		set, defs = wr.PerLayer, perLayerMetrics
	}
	line := contractLine{
		Correct:   wr.SessionsFailed == 0,
		Attempted: wr.SessionsAttempted,
		Failed:    wr.SessionsFailed,
		Metrics:   map[string]contractMetric{},
	}
	for _, d := range defs {
		line.Metrics[d.name] = contractMetric{Value: set[d.name].Median, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if wr.SessionsFailed > 0 {
		return 1
	}
	return 0
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll measures every workload — each in its own child process, so heap
// state and peak RSS are per workload — and merges the children's results.
// -quick runs them in this process instead, which is what the smoke test
// can afford.
func runAll(o options, dir string, stdout, stderr io.Writer) int {
	start := time.Now()
	res := &result{}
	var spans []span
	for _, name := range workloadNames {
		var wr *workloadResult
		if o.quick {
			r, tr, err := runWorkload(runConfig{
				workload: name, seed: o.seed, seconds: o.seconds,
				traced: true, sizes: sizesFor(true), dir: dir,
			})
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			wr, spans = r, append(spans, tr.spans...)
		} else {
			child, childSpans, err := runChild(o, dir, name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
				return 1
			}
			wr, spans = child, append(spans, childSpans...)
		}
		res.Workloads = append(res.Workloads, wr)
		printWorkload(stdout, wr, true)
	}
	res.Env = captureEnv(o, res.Workloads[0])
	res.Env.WallS = time.Since(start).Seconds()

	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.SessionsFailed
		for _, f := range wr.Failures {
			fmt.Fprintf(stderr, "bench: FAILED CHECK: %s: %s\n", wr.Name, f)
		}
	}
	// The compressed mmap'd run must answer exactly what the flat run did.
	flat, comp := res.workload("rmat_traverse"), res.workload("mmap_compressed")
	if !sameHashes(flat.Hashes, comp.Hashes) {
		fmt.Fprintf(stderr, "bench: FAILED CHECK: result hashes differ between rmat_traverse %v and mmap_compressed %v\n", flat.Hashes, comp.Hashes)
		failed++
	}
	if err := writeOutputs(o, res, spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%d workloads in %.1f s, %d failed sessions\n", len(res.Workloads), res.Env.WallS, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload and reads back its
// result file and spans.
func runChild(o options, dir, name string, stderr io.Writer) (*workloadResult, []span, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	outPath := filepath.Join(dir, name+".json")
	tracePath := filepath.Join(dir, name+".trace.jsonl")
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", "1",
		"-out", outPath, "-trace-out", tracePath,
		"-workdir", dir)
	cmd.Stdout = io.Discard // the parent prints the merged result itself
	cmd.Stderr = stderr
	start := time.Now()
	// A child that fails its output checks exits 1 but still writes its
	// result; only a missing result is fatal here.
	runErr := cmd.Run()
	var child result
	if err := readJSON(outPath, &child); err != nil {
		if runErr != nil {
			return nil, nil, runErr
		}
		return nil, nil, err
	}
	wr := child.Workloads[0]
	wr.ChildWallS = time.Since(start).Seconds()
	spans, err := readSpans(tracePath)
	return wr, spans, err
}

func writeOutputs(o options, res *result, spans []span) error {
	if o.out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		if err := os.WriteFile(o.traceOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(w io.Writer, wr *workloadResult, perLayer bool) {
	fmt.Fprintf(w, "\n== %s (workers=%d, rss_scope=%s, sessions %d ok / %d, checks %d ok / %d, oracle %.3f s) ==\n",
		wr.Name, wr.Workers, wr.RSSScope, wr.SessionsAttempted-wr.SessionsFailed, wr.SessionsAttempted,
		wr.OpsAttempted-wr.OpsFailed, wr.OpsAttempted, wr.OracleS)
	printStats(w, endToEndMetrics, wr.EndToEnd)
	fmt.Fprintf(w, "  %-32s %14.6g %-8s\n", "failed_frac", wr.FailedFrac, "ratio")
	if !perLayer {
		return
	}
	printStats(w, perLayerMetrics, wr.PerLayer)
	layers := make([]string, 0, len(wr.TracedShares))
	for l := range wr.TracedShares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return wr.TracedShares[layers[i]] > wr.TracedShares[layers[j]] })
	fmt.Fprintf(w, "  traced self-time share of a session:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*wr.TracedShares[l])
	}
	fmt.Fprintln(w)
}

func printStats(w io.Writer, defs []metricDef, set map[string]stat) {
	for _, d := range defs {
		s, ok := set[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, s.N)
	}
}

func sameHashes(a, b map[string]string) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
