// Command xmtbench regenerates the paper's evaluation: Table I and Figures
// 1-4 from "Investigating Graph Algorithms in the BSP Model on the Cray
// XMT" (Ediger & Bader, IPDPSW 2013), plus the auxiliary counts the text
// quotes. It generates the RMAT workload, runs each algorithm in both
// programming models, and evaluates the recorded work profiles under the
// simulated Cray XMT machine model.
//
// Usage:
//
//	xmtbench [-exp all|<name>|<group>] [-csv dir]
//	         [-scale 16] [-ef 16] [-seed 1] [-procs 128]
//	         [-sources 5,17,99]
//	         [-graph-rep flat|compressed]
//	         [-retries N] [-step-timeout 0] [-run-timeout 0]
//	         [-workers N] [-obs-format report|jsonl|chrome] [-obs-out out] [-pprof addr|file]
//	         [-http host:port] [-http-linger 0s]
//
// The experiments, the rows of internal/experiments' table, in the order
// -exp all runs them; -exp ablation runs the four ablation-* rows, and
// -csv dir writes each row's numbers to dir/<name>.csv:
//
//	-exp table1                Table I: total time of CC, BFS and TC, BSP vs GraphCT
//	-exp fig1                  Figure 1: CC time per iteration across processor counts
//	-exp fig2                  Figure 2: BFS frontier size vs BSP messages per level
//	-exp fig3                  Figure 3: BFS time per level across processor counts
//	-exp fig4                  Figure 4: TC time across processor counts
//	-exp aux                   the counts the text quotes: CC iteration gap, TC write blowup, BFS message excess
//	-exp extensions            Table I's method on k-core, label propagation, betweenness and SSSP
//	-exp graph500              Graph500-style BFS: sampled keys, validated trees, TEPS in both models
//	-exp msbfs                 64 BFS queries in one batched MS-BFS pass vs one pass each
//	-exp regimes               the machine bound that dominates each CC and BFS phase
//	-exp ablation-activation   full vertex scan vs sparse activation on BSP BFS
//	-exp ablation-hotspot      fetch-and-add allocation chunk sweep on BSP BFS
//	-exp ablation-combiner     min-combiner on and off on BSP CC
//	-exp ablation-sensitivity  memory latency and streams-per-processor sweeps over a BSP CC profile
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
	"os"
	"strings"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/core"
	"graphxmt/internal/experiments"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/obs/live"
)

func main() {
	exp := flag.String("exp", "all", experiments.Usage())
	scale := flag.Int("scale", 16, "RMAT scale (log2 vertices); the paper uses 24")
	ef := flag.Int("ef", 16, "RMAT edge factor; the paper uses 16")
	seed := flag.Uint64("seed", 1, "workload seed")
	procs := flag.Int("procs", 128, "simulated machine size in processors")
	graphRep := flag.String("graph-rep", "", "adjacency representation for the workload: flat or compressed (default: flat)")
	retries := flag.Int("retries", 0, "re-execute a faulting superstep up to N times in every BSP pass (0 = off)")
	stepTimeout := flag.Duration("step-timeout", 0, "per-superstep watchdog deadline for every BSP pass (0 = off)")
	runTimeout := flag.Duration("run-timeout", 0, "per-pass engine run deadline (0 = off)")
	sources := flag.String("sources", "", "comma-separated source vertices for the msbfs experiment (default: 64 stride-spread sources)")
	csvDir := flag.String("csv", "", "also write each experiment's numbers as <name>.csv into this directory")
	obsFlags := obs.AddFlags(flag.CommandLine)
	liveFlags := live.AddFlags(flag.CommandLine)
	flag.Parse()

	exps := experiments.Select(*exp)
	if exps == nil {
		usage("unknown experiment %q", *exp)
	}
	if *scale <= 0 || *scale > 40 {
		usage("-scale must be in (0,40], got %d", *scale)
	}
	if *ef <= 0 {
		usage("-ef must be > 0, got %d", *ef)
	}
	if *procs <= 0 {
		usage("-procs must be > 0, got %d", *procs)
	}
	var rep graph.Rep
	if s := strings.TrimSpace(*graphRep); s != "" {
		var ok bool
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
	// Experiments build their GraphCT recorders internally, so observers
	// are attached via the process-wide recorder factory.
	sess.InstallFactory()

	setup := experiments.Setup{
		Scale:      *scale,
		EdgeFactor: *ef,
		Seed:       *seed,
		Procs:      *procs,
		// Every BSP pass runs under the supervisor flags and reports to
		// the session's sink; zero supervision knobs leave it off.
		Engine: []core.Option{core.WithRetries(*retries), core.WithStepTimeout(*stepTimeout), core.WithRunTimeout(*runTimeout),
			func(cfg *core.Config) { cfg.Obs = sess.Sink }},
	}

	fmt.Printf("graphxmt bench: RMAT scale=%d ef=%d seed=%d, %d simulated processors, analytic model\n",
		*scale, *ef, *seed, *procs)
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
	// Source-list validation is shared with bspgraph (internal/batch), so
	// both CLIs reject malformed or out-of-range lists identically.
	if *sources != "" {
		if setup.Sources, err = batch.ParseSources(*sources, g.NumVertices()); err != nil {
			usage("%v", err)
		}
	}

	if err := experiments.Run(os.Stdout, g, setup, exps, *csvDir); err != nil {
		fatal(err)
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

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmtbench: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtbench:", err)
	os.Exit(1)
}
