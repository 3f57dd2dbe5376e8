// Command bspgraph runs the vertex-centric BSP algorithms (the paper's
// contribution) over a stored graph, printing results, per-superstep
// statistics, and simulated Cray XMT times.
//
// Usage:
//
//	bspgraph -g graph.gxmt -alg cc|bfs|reach|sssp|tc|tc-streaming|pagerank|kcore|lp|bc|mis|diameter
//	         [-src -1] [-sources 5,17,99] [-batch] [-procs 128] [-rounds 30] [-workers N]
//	         [-direction auto|push|pull]
//	         [-graph-rep flat|compressed]
//	         [-checkpoint-dir dir] [-ckpt-every 1] [-ckpt-keep 0] [-resume ckpt|auto]
//	         [-retries N] [-step-timeout 0] [-run-timeout 0]
//	         [-obs-format report|jsonl|chrome] [-obs-out trace.json] [-pprof addr|file]
//	         [-http host:port] [-http-linger 0s]
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
// reported (see docs/ROBUSTNESS.md). Multi-run algorithms (bc, diameter,
// tc-streaming) do not support checkpointing.
//
// Self-healing knobs: -retries N re-executes a faulting superstep from the
// last boundary snapshot up to N times (results stay bit-identical to a
// fault-free run); -step-timeout arms a per-superstep watchdog that dumps
// the flight recorder and an emergency checkpoint when a superstep stalls;
// -run-timeout bounds the whole run, finishing the superstep in flight and
// checkpointing before exiting. All three work on every algorithm,
// including the multi-run ones.
//
// Exit status: 0 on success, 1 on runtime errors (including retry
// exhaustion and watchdog stalls), 2 on usage errors, 3 when interrupted
// by a signal or the run deadline (after writing a checkpoint if enabled).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/signal"
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
	alg := flag.String("alg", "cc", "algorithm: cc, bfs, reach, sssp, tc, tc-streaming, pagerank, kcore, lp, bc, mis, diameter")
	src := flag.Int64("src", -1, "bfs/sssp source (-1 = max-degree vertex)")
	sources := flag.String("sources", "", "comma-separated bfs/reach sources (batched with -batch, else sequential runs)")
	batchMode := flag.Bool("batch", false, "answer -sources in one MS-BFS engine pass (<= 64 unique sources)")
	procs := flag.Int("procs", 128, "simulated processors")
	rounds := flag.Int("rounds", 30, "pagerank/lp supersteps")
	profile := flag.String("profile", "", "write the recorded work profile as JSON to this path")
	ckptDir := flag.String("checkpoint-dir", "", "write superstep-boundary checkpoints into this directory")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint every N superstep boundaries")
	ckptKeep := flag.Int("ckpt-keep", 0, "keep only the newest K periodic checkpoints (0 = all)")
	resume := flag.String("resume", "", "resume from this checkpoint file, or \"auto\"/\"latest\" for the newest valid checkpoint in -checkpoint-dir")
	retries := flag.Int("retries", 0, "re-execute a faulting superstep up to N times from the last boundary snapshot (0 = off)")
	stepTimeout := flag.Duration("step-timeout", 0, "per-superstep watchdog deadline, e.g. 30s (0 = off)")
	runTimeout := flag.Duration("run-timeout", 0, "whole-run deadline; finishes the superstep in flight and checkpoints (0 = off)")
	faultPlan := flag.String("fault-plan", "", "fault-injection plan, e.g. \"kill@2;panic@3:17\" (testing)")
	direction := flag.String("direction", "auto", "superstep direction: auto (adaptive push/pull), push (forced scatter), pull (pull every eligible superstep)")
	graphRep := flag.String("graph-rep", "", "force the adjacency representation: flat or compressed (default: as loaded)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	liveFlags := live.AddFlags(flag.CommandLine)
	flag.Parse()

	if *path == "" {
		usage("-g is required")
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
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
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
	dir, ok := core.ParseDirection(strings.TrimSpace(*direction))
	if !ok {
		usage("-direction must be auto, push or pull, got %q", *direction)
	}
	var rep graph.Rep
	if s := strings.TrimSpace(*graphRep); s != "" {
		if rep, ok = graph.ParseRep(s); !ok {
			usage("-graph-rep must be flat or compressed, got %q", *graphRep)
		}
	}
	name := strings.TrimSpace(*alg)
	srcSet, sourcesSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "src":
			srcSet = true
		case "sources":
			sourcesSet = true
		}
	})
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
	if *sources != "" && name != "bfs" && name != "reach" {
		usage("-sources applies to bfs and reach, not %s", name)
	}
	if name == "reach" && *sources == "" {
		usage("reach needs -sources (batched reachability queries)")
	}
	resumeLatest := false
	switch strings.TrimSpace(*resume) {
	case "auto", "latest":
		resumeLatest = true
		*resume = ""
		if *ckptDir == "" {
			usage("-resume auto needs -checkpoint-dir to know where to look")
		}
	}
	checkpointed := *ckptDir != "" || *resume != ""
	switch name {
	case "bc", "diameter", "tc-streaming":
		if checkpointed || *faultPlan != "" {
			usage("%s runs multiple engine passes and does not support -checkpoint-dir/-resume/-fault-plan", name)
		}
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
	var flight *live.FlightRecorder
	if liveSrv != nil {
		sess.AddSink(liveSrv.Sink())
		flight = liveSrv.Flight()
	} else if checkpointed || sess.Sink != nil {
		flight = live.NewFlightRecorder(0)
		sess.AddSink(flight)
	}
	if flight != nil {
		// SIGQUIT dumps the superstep ring without stopping the run —
		// crash-context on demand for a wedged or slow computation.
		dumpDir := *ckptDir
		if dumpDir == "" {
			dumpDir = "."
		}
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
		fatal(err)
	}
	defer gCloser.Close()
	if rep != "" && g.Rep() != rep {
		if g, err = graph.WithRep(g, rep); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("loaded %v (%s adjacency) in %v\n", g, g.Rep(), time.Since(loadStart).Round(time.Microsecond))

	model := machine.NewAnalytic(machine.DefaultConfig())
	rec := trace.NewRecorder()
	sess.Attach(rec, g.NumVertices(), g.NumEdges())
	source := *src
	if source < 0 {
		source = maxDegreeVertex(g)
	}
	if source >= g.NumVertices() {
		usage("-src %d out of range [0,%d)", source, g.NumVertices())
	}

	// Source-list validation is shared with xmtbench (internal/batch), so
	// both CLIs reject malformed or out-of-range lists identically.
	var bplan *batch.Plan
	if *sources != "" {
		srcs, err := batch.ParseSources(*sources, g.NumVertices())
		if err != nil {
			usage("%v", err)
		}
		if bplan, err = batch.NewPlan(srcs, g.NumVertices()); err != nil {
			usage("%v", err)
		}
		if name == "reach" {
			*batchMode = true // reachability queries only exist batched
		}
		if !*batchMode && bplan.Occupancy() > 1 && (checkpointed || *faultPlan != "") {
			usage("sequential multi-source bfs runs one engine pass per source and does not support -checkpoint-dir/-resume/-fault-plan; add -batch")
		}
	}

	// Checkpoint label: algorithm plus the parameters that shape the run,
	// so a checkpoint cannot be resumed under different ones. Batched runs
	// pin the full lane assignment (also carried by the format-v7
	// fingerprint) so a resume under a permuted source list is refused.
	label := name
	switch {
	case bplan != nil && *batchMode && name == "reach":
		label = "multireach lanes=" + bplan.String()
	case bplan != nil && *batchMode:
		label = "multibfs lanes=" + bplan.String()
	case name == "bfs" || name == "sssp":
		label = fmt.Sprintf("%s src=%d", name, source)
	case name == "pagerank" || name == "lp":
		label = fmt.Sprintf("%s rounds=%d", name, *rounds)
	case name == "mis":
		label = fmt.Sprintf("%s seed=%d", name, 7)
	}

	opts := []core.Option{core.WithDirection(dir)}
	if checkpointed {
		// With -resume but no -checkpoint-dir the policy is label-only:
		// it validates the checkpoint's identity but writes nothing new.
		opts = append(opts, core.WithCheckpoint(&ckpt.Policy{
			Dir:    *ckptDir,
			EveryN: *ckptEvery,
			Keep:   *ckptKeep,
			Label:  label,
			Hooks:  plan.Hooks(),
		}))
	}
	if *resume != "" {
		opts = append(opts, core.WithResume(*resume))
	}
	if resumeLatest {
		opts = append(opts, core.WithResumeLatest())
	}
	if *retries > 0 {
		opts = append(opts, core.WithRetries(*retries))
	}
	if *stepTimeout > 0 {
		opts = append(opts, core.WithStepTimeout(*stepTimeout))
	}
	if *runTimeout > 0 {
		opts = append(opts, core.WithRunTimeout(*runTimeout))
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

	switch name {
	case "cc":
		res, err := bspalg.ConnectedComponents(g, rec, opts...)
		exitOn(err)
		comps := map[int64]int64{}
		for _, l := range res.Labels {
			comps[l]++
		}
		fmt.Printf("[bsp cc] %d components in %d supersteps\n", len(comps), res.Supersteps)
		fmt.Printf("         active/step:   %v\n", res.ActivePerStep)
		fmt.Printf("         messages/step: %v\n", res.MessagesPerStep)
	case "bfs":
		switch {
		case bplan != nil && *batchMode:
			res, err := bspalg.MultiBFS(g, bplan, rec, opts...)
			exitOn(err)
			var sent int64
			for _, m := range res.MessagesPerStep {
				sent += m
			}
			fmt.Printf("[bsp multibfs] lanes=%d supersteps=%d reached(sum over lanes)=%d\n",
				bplan.Occupancy(), res.Supersteps, lanesReached(res.Masks))
			fmt.Printf("               messages/step: %v\n", res.MessagesPerStep)
			fmt.Printf("               amortized edge traversals/query: %.0f\n",
				float64(sent)/float64(bplan.Occupancy()))
		case bplan != nil:
			// One engine pass per unique source — the unbatched control the
			// MS-BFS layer is measured against.
			for _, s := range bplan.Sources {
				res, err := bspalg.BFS(g, s, rec, opts...)
				exitOn(err)
				var reached int64
				for _, f := range res.FrontierPerStep {
					reached += f
				}
				fmt.Printf("[bsp bfs] source=%d supersteps=%d reached=%d\n", s, res.Supersteps, reached)
			}
		default:
			res, err := bspalg.BFS(g, source, rec, opts...)
			exitOn(err)
			var reached int64
			for _, f := range res.FrontierPerStep {
				reached += f
			}
			fmt.Printf("[bsp bfs] source=%d supersteps=%d reached=%d\n", source, res.Supersteps, reached)
			fmt.Printf("          frontier/level: %v\n", res.FrontierPerStep)
			fmt.Printf("          messages/step:  %v\n", res.MessagesPerStep)
		}
	case "reach":
		res, err := bspalg.MultiReach(g, bplan, rec, opts...)
		exitOn(err)
		fmt.Printf("[bsp multireach] lanes=%d supersteps=%d reached(sum over lanes)=%d\n",
			bplan.Occupancy(), res.Supersteps, lanesReached(res.Masks))
	case "sssp":
		if !g.Weighted() {
			usage("sssp requires a weighted graph")
		}
		res, err := bspalg.SSSP(g, source, rec, opts...)
		exitOn(err)
		var reached int
		for _, d := range res.Dist {
			if d >= 0 {
				reached++
			}
		}
		fmt.Printf("[bsp sssp] source=%d supersteps=%d reached=%d\n", source, res.Supersteps, reached)
	case "tc":
		res, err := bspalg.Triangles(g, rec, opts...)
		exitOn(err)
		fmt.Printf("[bsp tc] triangles=%d candidates=%d total-messages=%d supersteps=%d\n",
			res.Count, res.CandidateMessages, res.TotalMessages, res.Supersteps)
	case "tc-streaming":
		res, err := bspalg.StreamingTriangles(g, rec)
		exitOn(err)
		fmt.Printf("[bsp tc-streaming] triangles=%d candidates=%d total-messages=%d supersteps=%d\n",
			res.Count, res.CandidateMessages, res.TotalMessages, res.Supersteps)
	case "mis":
		res, err := bspalg.MaximalIndependentSet(g, 7, rec, opts...)
		exitOn(err)
		members := 0
		for _, in := range res.InSet {
			if in {
				members++
			}
		}
		valid := bspalg.ValidateMIS(g, res.InSet)
		fmt.Printf("[bsp mis] %d members in %d rounds (valid=%v)\n", members, res.Rounds, valid)
	case "diameter":
		d, err := bspalg.ApproxDiameter(g, source, 4, rec, opts...)
		exitOn(err)
		fmt.Printf("[bsp diameter] >= %d (double-sweep from %d)\n", d, source)
	case "bc":
		res, err := bspalg.Betweenness(g, bspalg.BetweennessOptions{Samples: 16, Seed: 7}, rec, opts...)
		exitOn(err)
		var max float64
		var arg int
		for i, sc := range res.Score {
			if sc > max {
				max, arg = sc, i
			}
		}
		fmt.Printf("[bsp bc] sources=%d supersteps=%d top vertex %d (%.4g)\n",
			len(res.Sources), res.Supersteps, arg, max)
	case "kcore":
		res, err := bspalg.KCore(g, rec, opts...)
		exitOn(err)
		fmt.Printf("[bsp kcore] degeneracy=%d supersteps=%d\n", res.MaxCore, res.Supersteps)
	case "lp":
		res, err := bspalg.LabelPropagation(g, *rounds, rec, opts...)
		exitOn(err)
		fmt.Printf("[bsp lp] %d communities in %d supersteps\n", res.Communities, res.Supersteps)
	case "pagerank":
		res, err := bspalg.PageRank(g, *rounds, rec, opts...)
		exitOn(err)
		var max float64
		var arg int
		for i, r := range res.Rank {
			if r > max {
				max, arg = r, i
			}
		}
		fmt.Printf("[bsp pagerank] supersteps=%d top vertex %d (%.5f)\n", res.Supersteps, arg, max)
	default:
		usage("unknown algorithm %q", *alg)
	}
	fmt.Printf("simulated time on %d procs: %.4fs\n",
		*procs, machine.Seconds(model, rec.Phases(), *procs))
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

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bspgraph: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bspgraph:", err)
	os.Exit(1)
}

// exitOn reports err and exits: interrupted runs (signal or injected kill)
// and expired run deadlines exit 3 after printing the resume command;
// everything else — retry exhaustion, watchdog stalls, program faults —
// exits 1.
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
	var te *core.TimeoutError
	if errors.As(err, &te) {
		fmt.Fprintln(os.Stderr, "bspgraph:", err)
		if te.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: resume with -resume %s\n", te.CheckpointPath)
		}
		if te.FlightRecorderPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: flight recorder: %s\n", te.FlightRecorderPath)
		}
		if te.Stalled {
			os.Exit(1) // a wedged superstep is a failure, not a clean deadline
		}
		os.Exit(3)
	}
	var re *core.RetryExhaustedError
	if errors.As(err, &re) {
		fmt.Fprintln(os.Stderr, "bspgraph:", err)
		if re.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: emergency checkpoint: resume with -resume %s\n", re.CheckpointPath)
		}
		if re.FlightRecorderPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: flight recorder: %s\n", re.FlightRecorderPath)
		}
		os.Exit(1)
	}
	var pe *core.ProgramError
	if errors.As(err, &pe) && pe.CheckpointPath != "" {
		fmt.Fprintf(os.Stderr, "bspgraph: %v\nbspgraph: emergency checkpoint: resume with -resume %s\n",
			err, pe.CheckpointPath)
		if pe.FlightRecorderPath != "" {
			fmt.Fprintf(os.Stderr, "bspgraph: flight recorder: %s\n", pe.FlightRecorderPath)
		}
		os.Exit(1)
	}
	fatal(err)
}

// lanesReached sums per-lane reached-set sizes: the popcount of every
// vertex's lane mask.
func lanesReached(masks []int64) int64 {
	var n int64
	for _, m := range masks {
		n += int64(bits.OnesCount64(uint64(m)))
	}
	return n
}

func maxDegreeVertex(g *graph.Graph) int64 {
	var best, src int64 = -1, 0
	for v := int64(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > best {
			best, src = d, v
		}
	}
	return src
}
