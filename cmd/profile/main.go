// Command profile re-evaluates a saved work profile (bspgraph/graphct
// -profile output) under arbitrary machine configurations, without
// re-running the kernel that produced it. Profiles — not timings — are
// graphxmt's portable measurement artifact: one kernel execution yields
// every scaling curve and every what-if.
//
// Usage:
//
//	profile -in bfs.profile.json                      # default machine, proc sweep
//	profile -in bfs.profile.json -latency 1200        # slower memory
//	profile -in bfs.profile.json -streams 32 -procs 64
//	profile -in bfs.profile.json -phases              # per-phase breakdown + regimes
//
// The shared obs flags (-workers, -obs-format/-obs-out, -pprof) are
// accepted; -pprof is the useful one here (CPU-profile a large sweep).
package main

import (
	"flag"
	"fmt"
	"os"

	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

func main() {
	in := flag.String("in", "", "profile JSON path (required)")
	procs := flag.Int("procs", 128, "processor count for the headline number")
	latency := flag.Int("latency", 0, "override memory latency in cycles (0 = default)")
	streams := flag.Int("streams", 0, "override streams per processor (0 = default)")
	hotspot := flag.Int("hotspot", 0, "override hotspot cycles per fetch-and-add (0 = default)")
	phases := flag.Bool("phases", false, "print per-phase times and regime diagnosis")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "profile: -in is required")
		os.Exit(2)
	}
	// Machine overrides are cycle counts: negative values describe no
	// machine and silently behaving like "default" would hide typos.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "profile: "+format+"\n", args...)
		os.Exit(2)
	}
	if *latency < 0 {
		usage("-latency must be >= 0 cycles (0 = default), got %d", *latency)
	}
	if *streams < 0 {
		usage("-streams must be >= 0 (0 = default), got %d", *streams)
	}
	if *hotspot < 0 {
		usage("-hotspot must be >= 0 cycles (0 = default), got %d", *hotspot)
	}
	if *procs <= 0 {
		usage("-procs must be > 0, got %d", *procs)
	}
	// profile evaluates recorded work, so the obs sinks see no kernel runs
	// here — the flags matter for -workers and -pprof (CPU-profile the
	// machine-model evaluation itself on large sweeps).
	sess, err := obsFlags.Start()
	if err != nil {
		usage("%v", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	rec, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	ph := rec.Phases()
	fmt.Printf("profile: %d phases from %s\n", len(ph), *in)

	cfg := machine.DefaultConfig()
	if *latency > 0 {
		cfg.MemLatency = *latency
	}
	if *streams > 0 {
		cfg.StreamsPerProc = *streams
	}
	if *hotspot > 0 {
		cfg.HotspotCycles = *hotspot
	}
	cfg.Procs = *procs

	model := machine.NewAnalytic(cfg)

	fmt.Printf("machine: L=%d cycles, S=%d streams/proc, hotspot=%d cycles, analytic model\n",
		cfg.MemLatency, cfg.StreamsPerProc, cfg.HotspotCycles)
	fmt.Println("\nprocessor sweep:")
	for _, p := range machine.ProcSweep(*procs) {
		fmt.Printf("  %4d procs: %.6fs\n", p, machine.Seconds(model, ph, p))
	}
	fmt.Printf("headline: %.6fs at %d procs\n", machine.Seconds(model, ph, *procs), *procs)

	if *phases {
		fmt.Println("\nper-phase breakdown:")
		for _, p := range ph {
			regime, share := model.Diagnose(p, *procs)
			fmt.Printf("  %-18s[%2d] %10.6fs  %-14s (%.0f%%)\n",
				p.Name, p.Index,
				cfg.Seconds(model.PhaseCycles(p, *procs)), regime, 100*share)
		}
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
