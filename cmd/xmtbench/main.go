// Command xmtbench regenerates the paper's evaluation: Table I and Figures
// 1-4 from "Investigating Graph Algorithms in the BSP Model on the Cray
// XMT" (Ediger & Bader, IPDPSW 2013), plus the auxiliary counts the text
// quotes. It generates the RMAT workload, runs each algorithm in both
// programming models, and evaluates the recorded work profiles under the
// simulated Cray XMT machine model.
//
// Usage:
//
//	xmtbench [-exp all|table1|fig1|fig2|fig3|fig4|aux|extensions|graph500|regimes|msbfs|ablation]
//	         [-scale 16] [-ef 16] [-seed 1] [-procs 128] [-model analytic|des]
//	         [-sources 5,17,99]
//	         [-direction auto|push|pull] [-graph-rep flat|compressed]
//	         [-retries N] [-step-timeout 0] [-run-timeout 0]
//	         [-workers N] [-obs-format report|jsonl|chrome] [-obs-out out] [-pprof addr|file]
//	         [-http host:port] [-http-linger 0s]
//
// -retries, -step-timeout and -run-timeout arm the engine's run
// supervisor on every BSP pass an experiment performs (multi-run
// experiments thread them through each pass); see docs/ROBUSTNESS.md.
//
// The paper's graph is scale 24 / edge factor 16; the default scale 16
// keeps the triangle-counting experiment laptop-sized (see EXPERIMENTS.md
// for the downscaling rationale and recorded results).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/core"
	"graphxmt/internal/experiments"
	"graphxmt/internal/graph"
	"graphxmt/internal/graph500"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig1, fig2, fig3, fig4, aux, extensions, graph500, regimes, msbfs, ablation")
	scale := flag.Int("scale", 16, "RMAT scale (log2 vertices); the paper uses 24")
	ef := flag.Int("ef", 16, "RMAT edge factor; the paper uses 16")
	seed := flag.Uint64("seed", 1, "workload seed")
	procs := flag.Int("procs", 128, "simulated machine size in processors")
	model := flag.String("model", "analytic", "machine model: analytic or des")
	direction := flag.String("direction", "auto", "superstep direction for BSP runs: auto, push or pull")
	graphRep := flag.String("graph-rep", "", "adjacency representation for the workload: flat or compressed (default: flat)")
	retries := flag.Int("retries", 0, "re-execute a faulting superstep up to N times in every BSP pass (0 = off)")
	stepTimeout := flag.Duration("step-timeout", 0, "per-superstep watchdog deadline for every BSP pass (0 = off)")
	runTimeout := flag.Duration("run-timeout", 0, "per-pass engine run deadline (0 = off)")
	sources := flag.String("sources", "", "comma-separated source vertices for the msbfs experiment (default: 64 stride-spread sources)")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	obsFlags := obs.AddFlags(flag.CommandLine)
	liveFlags := live.AddFlags(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 || *scale > 40 {
		usage("-scale must be in (0,40], got %d", *scale)
	}
	if *ef <= 0 {
		usage("-ef must be > 0, got %d", *ef)
	}
	if *procs <= 0 {
		usage("-procs must be > 0, got %d", *procs)
	}
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
	// Defaults of 0 mean off; an explicit zero or negative value is rejected
	// rather than silently disabling the supervision the user asked for.
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
		case "sources":
			if strings.TrimSpace(*sources) == "" {
				usage("-sources must list at least one vertex")
			}
		}
	})
	sess, err := obsFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	liveSrv, err := liveFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	if liveSrv != nil {
		sess.AddSink(liveSrv.Sink())
	}
	// Experiments build their recorders internally, so observers are
	// attached via the process-wide recorder factory.
	sess.InstallFactory()

	setup := experiments.Setup{
		Scale:       *scale,
		EdgeFactor:  *ef,
		Seed:        *seed,
		Procs:       *procs,
		Direction:   dir,
		Retries:     *retries,
		StepTimeout: *stepTimeout,
		RunTimeout:  *runTimeout,
	}
	cfg := machine.DefaultConfig()
	cfg.Procs = *procs
	switch *model {
	case "analytic":
		setup.Model = machine.NewAnalytic(cfg)
	case "des":
		setup.Model = machine.NewDES(cfg)
	default:
		usage("unknown model %q", *model)
	}

	fmt.Printf("graphxmt bench: RMAT scale=%d ef=%d seed=%d, %d simulated processors, %s model\n",
		*scale, *ef, *seed, *procs, *model)
	start := time.Now()
	g, err := experiments.BuildGraph(setup)
	if err != nil {
		fatal(err)
	}
	if rep != "" && g.Rep() != rep {
		if g, err = graph.WithRep(g, rep); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("workload: %v (%s adjacency, generated in %v)\n\n", g, g.Rep(), time.Since(start).Round(time.Millisecond))

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if want("table1") {
		ran = true
		res, err := experiments.Table1(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderTable1(os.Stdout, res)
		fmt.Println()
	}
	if want("fig1") {
		ran = true
		res, err := experiments.Fig1(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFig1(os.Stdout, res)
		writeCSV(*csvDir, "fig1.csv", res.WriteFig1CSV)
		fmt.Println()
	}
	if want("fig2") {
		ran = true
		res, err := experiments.Fig2(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFig2(os.Stdout, res)
		writeCSV(*csvDir, "fig2.csv", res.WriteFig2CSV)
		fmt.Println()
	}
	if want("fig3") {
		ran = true
		res, err := experiments.Fig3(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFig3(os.Stdout, res)
		writeCSV(*csvDir, "fig3.csv", res.WriteFig3CSV)
		fmt.Println()
	}
	if want("fig4") {
		ran = true
		res, err := experiments.Fig4(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFig4(os.Stdout, res)
		writeCSV(*csvDir, "fig4.csv", res.WriteFig4CSV)
		fmt.Println()
	}
	if want("aux") {
		ran = true
		res, err := experiments.Aux(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderAux(os.Stdout, res)
		fmt.Println()
	}
	if want("extensions") {
		ran = true
		res, err := experiments.Extensions(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderExtensions(os.Stdout, res, *procs)
		fmt.Println()
	}
	if want("graph500") {
		ran = true
		for _, bsp := range []bool{false, true} {
			res, err := graph500.RunOnGraph(g, graph500.Config{
				Scale: *scale, SearchKeys: 16, Seed: *seed, Procs: *procs,
				Model: setup.Model, BSP: bsp,
			})
			if err != nil {
				fatal(err)
			}
			name := "GraphCT"
			if bsp {
				name = "BSP"
			}
			fmt.Printf("GRAPH500-style (%s): %d/%d searches validated; TEPS min %.3g / median %.3g / harmonic %.3g / max %.3g\n",
				name, res.Validated, len(res.Keys), res.MinTEPS, res.MedianTEPS, res.HarmonicMeanTEPS, res.MaxTEPS)
		}
		fmt.Println()
	}
	if want("msbfs") {
		ran = true
		// Source-list validation is shared with bspgraph (internal/batch),
		// so both CLIs reject malformed or out-of-range lists identically.
		var srcs []int64
		if *sources != "" {
			if srcs, err = batch.ParseSources(*sources, g.NumVertices()); err != nil {
				usage("%v", err)
			}
		}
		res, err := experiments.MSBFS(g, setup, srcs)
		if err != nil {
			fatal(err)
		}
		experiments.RenderMSBFS(os.Stdout, res, *procs)
		fmt.Println()
	}
	if want("regimes") {
		ran = true
		res, err := experiments.Regimes(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderRegimes(os.Stdout, res)
		fmt.Println()
	}
	if want("ablation") {
		ran = true
		act, err := experiments.AblationActivation(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderActivation(os.Stdout, act)
		fmt.Println()
		hot, err := experiments.AblationHotspot(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderHotspot(os.Stdout, hot, *procs)
		fmt.Println()
		comb, err := experiments.AblationCombiner(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderCombiner(os.Stdout, comb, *procs)
		fmt.Println()
		sens, err := experiments.SensitivityMachine(g, setup)
		if err != nil {
			fatal(err)
		}
		experiments.RenderSensitivity(os.Stdout, sens, *procs)
		fmt.Println()
	}
	if !ran {
		usage("unknown experiment %q", *exp)
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
	if err := liveFlags.Close(liveSrv); err != nil {
		fatal(err)
	}
	fmt.Printf("done in %v (host time; reported numbers are simulated XMT seconds)\n",
		time.Since(start).Round(time.Millisecond))
}

// writeCSV writes one figure's CSV into dir when -csv is set.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmtbench: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtbench:", err)
	os.Exit(1)
}
