// Command bspgraph runs the vertex-centric BSP algorithms (the paper's
// contribution) over a stored graph, printing results, per-superstep
// statistics, and simulated Cray XMT times.
//
// Usage:
//
//	bspgraph -g graph.gxmt -alg cc [-src -1] [-sources 5,17,99] [-batch] [-procs 128]
//	         [-rounds 30] [-workers N] [-graph-rep flat|compressed]
//	         [-checkpoint-dir dir] [-ckpt-every 1] [-ckpt-keep 0] [-resume ckpt|auto]
//	         [-retries N] [-step-timeout 0] [-run-timeout 0] [-http host:port] [-http-linger 0s]
//	         [-obs-format report|jsonl|chrome] [-obs-out trace.json] [-pprof addr|file]
//
// The algorithms are the rows of internal/bspalg's kernel table with a
// BSP runner; -h lists them. A row says which of -src, -sources and
// -rounds it reads, and whether it is one checkpointable engine pass.
//
// -sources runs multi-source BFS over a comma-separated vertex list:
// with -batch (and always for -alg reach) the queries share one MS-BFS
// engine pass — up to 64 unique sources, one bit lane each, checkpointable
// like any single run — while without it each source runs as its own
// sequential pass (no checkpointing for more than one source). Duplicate
// sources collapse onto one lane; out-of-range or malformed lists are
// usage errors. -alg reach answers batched reachability only (no levels).
//
// SSSP requires a weighted graph (graphgen does not emit one; build via
// the library or a weighted DIMACS file). The -obs-* flags export host
// runtime observability (see docs/OBSERVABILITY.md): per-superstep phase
// spans, worker utilization, and memory samples.
//
// The graph file's format is detected from its content: GXMTCSR1 (flat
// binary snapshot), GXMTCSR2 (compressed, loaded zero-copy via mmap),
// gzip-wrapped either, DIMACS text, or a plain edge list. -graph-rep
// forces the in-memory adjacency representation after loading; results
// are bit-identical either way (the representation trades decode time for
// memory bandwidth and residency — see docs/PERFORMANCE.md).
//
// -http serves the live introspection endpoint while the run executes:
// /metrics (Prometheus text exposition), /runs and /runs/current (JSON run
// state), and /debug/pprof. -http-linger keeps it up after the run so a
// scraper can read the final totals. Checkpointed and -http runs also carry
// a flight recorder (the last supersteps' spans and counters): a
// vertex-program panic dumps it next to the emergency checkpoint, and
// SIGQUIT dumps it on demand without stopping the run.
//
// With -checkpoint-dir the engine snapshots its state at superstep
// boundaries; on SIGINT/SIGTERM it finishes the current superstep, writes
// a final checkpoint, and exits with status 3. Pass the printed checkpoint
// to -resume to continue the same run bit-identically, or pass
// "-resume auto" (alias "latest") to resume from the newest *valid*
// checkpoint in -checkpoint-dir — damaged snapshots are skipped and
// reported (see docs/ROBUSTNESS.md). Multi-pass rows do not checkpoint.
//
// Self-healing knobs: -retries N re-executes a faulting superstep from the
// last boundary snapshot up to N times (results stay bit-identical to a
// fault-free run); -step-timeout arms a per-superstep watchdog that dumps
// the flight recorder and an emergency checkpoint when a superstep stalls;
// -run-timeout bounds the whole run, finishing the superstep in flight and
// checkpointing before exiting. All three apply to every engine pass.
//
// Exit status: 0 on success, 1 on runtime errors (including retry
// exhaustion and watchdog stalls), 2 on usage errors, 3 when interrupted
// by a signal or the run deadline (after writing a checkpoint if enabled).
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
	"graphxmt/internal/trace"
)

func main() {
	path := flag.String("g", "", "graph file (required)")
	alg := flag.String("alg", "cc", "algorithm: "+bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil }))
	readers := func(p bspalg.Param) string {
		return bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil && k.Reads&p != 0 })
	}
	src := flag.Int64("src", -1, "source vertex for "+readers(bspalg.Source)+" (-1 = max-degree vertex)")
	sources := flag.String("sources", "", "comma-separated sources for "+readers(bspalg.Sources)+" (batched with -batch, else sequential runs)")
	batchMode := flag.Bool("batch", false, "answer -sources in one MS-BFS engine pass (<= 64 unique sources)")
	procs := flag.Int("procs", 128, "simulated processors")
	rounds := flag.Int("rounds", 30, "supersteps of "+readers(bspalg.Rounds))
	profile := flag.String("profile", "", "write the recorded work profile as JSON to this path")
	ckptDir := flag.String("checkpoint-dir", "", "write superstep-boundary checkpoints into this directory")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint every N superstep boundaries")
	ckptKeep := flag.Int("ckpt-keep", 0, "keep only the newest K periodic checkpoints (0 = all)")
	resume := flag.String("resume", "", "resume from this checkpoint file, or \"auto\"/\"latest\" for the newest valid checkpoint in -checkpoint-dir")
	retries := flag.Int("retries", 0, "re-execute a faulting superstep up to N times from the last boundary snapshot (0 = off)")
	stepTimeout := flag.Duration("step-timeout", 0, "per-superstep watchdog deadline, e.g. 30s (0 = off)")
	runTimeout := flag.Duration("run-timeout", 0, "whole-run deadline; finishes the superstep in flight and checkpoints (0 = off)")
	faultPlan := flag.String("fault-plan", "", "fault-injection plan, e.g. \"kill@2;panic@3:17\" (testing)")
	graphRep := flag.String("graph-rep", "", "force the adjacency representation: flat or compressed (default: as loaded)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	liveFlags := live.AddFlags(flag.CommandLine)
	flag.Parse()

	if *path == "" {
		usage("-g is required")
	}
	name := strings.TrimSpace(*alg)
	k := bspalg.Lookup(name)
	if k == nil || k.BSP == nil {
		usage("unknown algorithm %q", *alg)
	}
	if *procs <= 0 {
		usage("-procs must be > 0, got %d", *procs)
	}
	if *rounds <= 0 {
		usage("-rounds must be > 0, got %d", *rounds)
	}
	if *src < -1 {
		usage("-src must be a vertex ID or -1 for max-degree, got %d", *src)
	}
	if *ckptEvery <= 0 {
		usage("-ckpt-every must be > 0, got %d", *ckptEvery)
	}
	if *ckptKeep < 0 {
		usage("-ckpt-keep must be >= 0, got %d", *ckptKeep)
	}
	// The supervision knobs default to 0 = disabled; an *explicit* zero or
	// negative value is a contradiction ("supervise this, never") and is
	// rejected rather than silently ignored.
	srcSet, sourcesSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "src":
			srcSet = true
		case "sources":
			sourcesSet = true
		case "retries":
			if *retries <= 0 {
				usage("-retries must be > 0, got %d", *retries)
			}
		case "step-timeout":
			if *stepTimeout <= 0 {
				usage("-step-timeout must be > 0, got %v", *stepTimeout)
			}
		case "run-timeout":
			if *runTimeout <= 0 {
				usage("-run-timeout must be > 0, got %v", *runTimeout)
			}
		}
	})
	var rep graph.Rep
	if s := strings.TrimSpace(*graphRep); s != "" {
		var ok bool
		if rep, ok = graph.ParseRep(s); !ok {
			usage("-graph-rep must be flat or compressed, got %q", *graphRep)
		}
	}
	// An explicitly empty list is rejected rather than silently falling
	// back to the single-source default the user opted out of.
	if sourcesSet && strings.TrimSpace(*sources) == "" {
		usage("-sources must list at least one vertex")
	}
	if *batchMode && *sources == "" {
		usage("-batch needs -sources")
	}
	if srcSet && *sources != "" {
		usage("-src and -sources are mutually exclusive")
	}
	if *sources != "" && k.Reads&bspalg.Sources == 0 {
		usage("-sources applies to %s, not %s", readers(bspalg.Sources), name)
	}
	// A row that reads a source list but no single source answers only
	// batched queries.
	batched := *batchMode || k.Reads&(bspalg.Source|bspalg.Sources) == bspalg.Sources
	if batched && *sources == "" {
		usage("%s needs -sources", name)
	}
	resumeLatest := slices.Contains([]string{"auto", "latest"}, strings.TrimSpace(*resume))
	if resumeLatest {
		*resume = ""
		if *ckptDir == "" {
			usage("-resume auto needs -checkpoint-dir to know where to look")
		}
	}
	checkpointed := *ckptDir != "" || *resume != ""
	if k.MultiPass && (checkpointed || *faultPlan != "") {
		usage("%s runs multiple engine passes and does not support -checkpoint-dir/-resume/-fault-plan", name)
	}

	plan, err := faultinject.ParsePlan(*faultPlan)
	if err != nil {
		usage("%v", err)
	}
	if (len(plan.KillAt) > 0 || len(plan.FailWriteAt) > 0 || len(plan.ENOSPCAt) > 0 || len(plan.TornWriteAt) > 0) && *ckptDir == "" {
		usage("-fault-plan kill/failwrite/enospc/tornwrite directives need -checkpoint-dir")
	}

	sess, err := obsFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	liveSrv, err := liveFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	// The flight recorder rides along whenever there is somewhere useful to
	// dump (a checkpoint directory) or someone watching (-http, -obs-*);
	// default runs keep the nil-sink hot path.
	var flight *obs.Store
	if liveSrv != nil {
		sess.AddSink(liveSrv.Sink())
		flight = liveSrv.Flight()
	} else if checkpointed || sess.Sink != nil {
		flight = &obs.Store{MaxRuns: 16}
		sess.AddSink(flight)
	}
	if resumeLatest {
		sess.AddSink(skipNotes{})
	}
	if flight != nil {
		// SIGQUIT dumps the superstep ring without stopping the run —
		// crash-context on demand for a wedged or slow computation.
		dumpDir := cmp.Or(*ckptDir, ".")
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				if p, err := flight.DumpFlight(dumpDir, "SIGQUIT"); err != nil {
					fmt.Fprintln(os.Stderr, "bspgraph: flight dump:", err)
				} else {
					fmt.Fprintln(os.Stderr, "bspgraph: flight recorder dumped to", p)
				}
			}
		}()
	}
	// Open detects the format from content (CSR1, CSR2, gzip, DIMACS, or
	// edge-list text); a CSR2 file is mmap'd zero-copy, so the closer must
	// outlive every use of the graph.
	loadStart := time.Now()
	g, gCloser, err := graphio.Open(*path)
	if err != nil {
		exitOn(err)
	}
	defer gCloser.Close()
	if rep != "" && g.Rep() != rep {
		if g, err = graph.WithRep(g, rep); err != nil {
			exitOn(err)
		}
	}
	fmt.Printf("loaded %v (%s adjacency) in %v\n", g, g.Rep(), time.Since(loadStart).Round(time.Microsecond))

	rec := trace.NewRecorder()
	source := *src
	if source < 0 {
		source = g.MaxDegreeVertex()
	}
	if k.Reads&bspalg.Source != 0 && *sources == "" && source >= g.NumVertices() {
		usage("-src %d out of range [0,%d)", source, g.NumVertices())
	}
	if k.Reads&bspalg.Weights != 0 && !g.Weighted() {
		usage("%s requires a weighted graph", name)
	}

	// Source-list validation is shared with xmtbench (internal/batch), so
	// both CLIs reject malformed or out-of-range lists identically.
	p := bspalg.Params{Source: source, Batch: batched, Rounds: *rounds, Samples: 16, Seed: 7}
	if *sources != "" {
		srcs, err := batch.ParseSources(*sources, g.NumVertices())
		if err != nil {
			usage("%v", err)
		}
		if p.Plan, err = batch.NewPlan(srcs, g.NumVertices()); err != nil {
			usage("%v", err)
		}
		if !batched && p.Plan.Occupancy() > 1 && (checkpointed || *faultPlan != "") {
			usage("sequential multi-source %s runs one engine pass per source and does not support -checkpoint-dir/-resume/-fault-plan; add -batch", name)
		}
	}

	// Zero supervision knobs leave the supervisor off; every engine pass
	// reports to the session's sink.
	opts := []core.Option{core.WithRetries(*retries), core.WithStepTimeout(*stepTimeout), core.WithRunTimeout(*runTimeout),
		func(cfg *core.Config) { cfg.Obs = sess.Sink }}
	if *ckptDir != "" {
		opts = append(opts, core.WithCheckpoint(&ckpt.Policy{
			Dir:    *ckptDir,
			EveryN: *ckptEvery,
			Keep:   *ckptKeep,
			Hooks:  plan.Hooks(),
		}))
	}
	if *resume != "" {
		opts = append(opts, core.WithResume(*resume))
	}
	if resumeLatest {
		opts = append(opts, core.WithResumeLatest())
	}
	if len(plan.PanicAt) > 0 || len(plan.PanicNAt) > 0 || len(plan.SlowStepAt) > 0 {
		opts = append(opts, func(cfg *core.Config) {
			cfg.Program = plan.WrapProgram(cfg.Program)
		})
	}
	if checkpointed {
		// Finish the current superstep, checkpoint, and exit 3 on
		// SIGINT/SIGTERM instead of dying mid-state.
		stop := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			signal.Stop(sig)
			close(stop)
		}()
		opts = append(opts, core.WithStop(stop))
	}

	out, err := k.BSP(g, p, rec, opts...)
	for _, line := range out.Lines {
		fmt.Println(line)
	}
	exitOn(err)
	fmt.Printf("simulated time on %d procs: %.4fs\n",
		*procs, machine.Seconds(machine.NewAnalytic(machine.DefaultConfig()), rec.Phases(), *procs))
	if *profile != "" {
		f, err := os.Create(*profile)
		exitOn(err)
		exitOn(rec.WriteJSON(f))
		exitOn(f.Close())
		fmt.Println("work profile written to", *profile)
	}
	exitOn(sess.Close())
	exitOn(liveFlags.Close(liveSrv))
}

// skipNotes is the sink that reports each checkpoint -resume auto skips on
// stderr, naming the file and the cause, whatever other sinks the run has.
type skipNotes struct{}

func (skipNotes) NoteFallback(path string, cause error) {
	fmt.Fprintf(os.Stderr, "bspgraph: -resume auto skipped %s: %v\n", path, cause)
}
func (skipNotes) RunStart(obs.RunInfo) {}
func (skipNotes) Span(obs.Span)        {}
func (skipNotes) Step(obs.StepStats)   {}
func (skipNotes) Mem(obs.MemSample)    {}
func (skipNotes) RunEnd(time.Duration) {}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bspgraph: "+format+"\n", args...)
	os.Exit(2)
}

// exitOn returns on a nil err and otherwise reports it and exits:
// interrupted runs (signal or injected kill) and expired run deadlines exit
// 3 after printing the resume command; everything else — load failures,
// retry exhaustion, watchdog stalls, program faults — exits 1.
func exitOn(err error) {
	if err == nil {
		return
	}
	var ie *core.InterruptedError
	if errors.As(err, &ie) {
		if ie.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: interrupted after superstep %d; resume with -resume %s\n",
				ie.Superstep, ie.CheckpointPath)
		} else {
			fmt.Fprintf(os.Stderr, "bspgraph: interrupted after superstep %d (no checkpoint directory configured)\n",
				ie.Superstep)
		}
		os.Exit(3)
	}
	// Deadlines, retry exhaustion and program faults name what they left
	// behind; a run deadline that expired cleanly exits 3, the rest 1.
	fmt.Fprintln(os.Stderr, "bspgraph:", err)
	status, resumeFrom, ckptPath, flightPath := 1, "emergency checkpoint: resume with", "", ""
	var te *core.TimeoutError
	var re *core.RetryExhaustedError
	var pe *core.ProgramError
	switch {
	case errors.As(err, &te):
		resumeFrom, ckptPath, flightPath = "resume with", te.CheckpointPath, te.FlightRecorderPath
		if !te.Stalled {
			status = 3
		}
	case errors.As(err, &re):
		ckptPath, flightPath = re.CheckpointPath, re.FlightRecorderPath
	case errors.As(err, &pe) && pe.CheckpointPath != "":
		ckptPath, flightPath = pe.CheckpointPath, pe.FlightRecorderPath
	}
	if ckptPath != "" {
		fmt.Fprintf(os.Stderr, "bspgraph: %s -resume %s\n", resumeFrom, ckptPath)
	}
	if flightPath != "" {
		fmt.Fprintf(os.Stderr, "bspgraph: flight recorder: %s\n", flightPath)
	}
	os.Exit(status)
}
