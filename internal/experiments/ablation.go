package experiments

import (
	"fmt"
	"io"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// This file holds ablations of the design choices DESIGN.md calls out.
// Each isolates one mechanism the paper blames for a BSP overhead and
// shows the overhead move when the mechanism changes:
//
//   - AblationActivation removes the full per-superstep vertex scan
//     (paper: early/late BSP iterations cost "two orders of magnitude"
//     more than shared memory).
//   - AblationHotspot varies the chunk size of fetch-and-add buffer
//     allocation (paper: "serialization around a single atomic
//     fetch-and-add is possible, inhibiting scalability").
//   - AblationCombiner toggles Pregel's combiner optimization on the
//     min-label connected components.
//   - SensitivityMachine sweeps memory latency and streams-per-processor
//     to show which regimes each kernel sits in.

// ActivationResult is the output of AblationActivation.
type ActivationResult struct {
	Procs []int
	// FullScan[s][i] and Sparse[s][i] are per-superstep BFS times at
	// Procs[i] under the two runtimes.
	FullScan [][]float64
	Sparse   [][]float64
	// Totals at the largest processor count.
	FullScanTotal, SparseTotal float64
}

// AblationActivation runs BSP BFS under the paper's full-scan runtime and
// under a sparse-activation worklist runtime, and compares per-superstep
// times. Results (distances) are identical; only scheduling work differs.
func AblationActivation(g *graph.Graph, s Setup) (*ActivationResult, error) {
	s = s.withDefaults()
	src := g.MaxDegreeVertex()

	fullRec := trace.NewRecorder()
	full, err := s.run("full-scan bfs", core.Config{
		Graph:    g,
		Program:  bspalg.BFSProgram{Source: src},
		Recorder: fullRec,
	})
	if err != nil {
		return nil, err
	}
	sparseRec := trace.NewRecorder()
	sparse, err := s.run("sparse-activation bfs", core.Config{
		Graph:            g,
		Program:          bspalg.BFSProgram{Source: src},
		Recorder:         sparseRec,
		SparseActivation: true,
	})
	if err != nil {
		return nil, err
	}
	for v := range full.States {
		if full.States[v] != sparse.States[v] {
			return nil, fmt.Errorf("experiments: activation ablation changed results at vertex %d", v)
		}
	}

	res := &ActivationResult{Procs: machine.ProcSweep(s.Procs)}
	for _, p := range res.Procs {
		res.FullScan = appendColumn(res.FullScan, perIndexSeconds(s.Model, fullRec.Phases(), p))
		res.Sparse = appendColumn(res.Sparse, perIndexSeconds(s.Model, sparseRec.Phases(), p))
	}
	res.FullScanTotal = machine.Seconds(s.Model, fullRec.Phases(), s.Procs)
	res.SparseTotal = machine.Seconds(s.Model, sparseRec.Phases(), s.Procs)
	return res, nil
}

// RenderActivation prints the activation ablation.
func RenderActivation(w io.Writer, r *ActivationResult) {
	fmt.Fprintln(w, "ABLATION: per-superstep vertex scan (paper runtime) vs sparse activation")
	fmt.Fprintln(w, "BSP BFS, full scan:")
	renderLevelSeries(w, r.Procs, r.FullScan)
	fmt.Fprintln(w, "BSP BFS, sparse activation:")
	renderLevelSeries(w, r.Procs, r.Sparse)
	fmt.Fprintf(w, "Totals at %d procs: full scan %.5fs, sparse %.5fs (%.2fx)\n",
		r.Procs[len(r.Procs)-1], r.FullScanTotal, r.SparseTotal,
		r.FullScanTotal/r.SparseTotal)
}

// HotspotResult is the output of AblationHotspot.
type HotspotResult struct {
	// Chunks lists the fetch-and-add allocation chunk sizes swept.
	Chunks []int64
	// TimeAtMax[i] is total BSP BFS time at Setup.Procs for Chunks[i].
	TimeAtMax []float64
	// Speedup[i] is the 8 -> Procs speedup for Chunks[i]; serialized
	// allocation (chunk 1) flattens it.
	Speedup []float64
}

// AblationHotspot sweeps the message-buffer allocation chunk size, the
// knob controlling how hard sends serialize on the single global
// fetch-and-add cursor.
func AblationHotspot(g *graph.Graph, s Setup) (*HotspotResult, error) {
	s = s.withDefaults()
	src := g.MaxDegreeVertex()
	res := &HotspotResult{Chunks: []int64{1, 4, 16, 64, 256}}
	for _, chunk := range res.Chunks {
		costs := core.DefaultCosts()
		costs.HotMsgChunk = chunk
		rec := trace.NewRecorder()
		if _, err := s.run(fmt.Sprintf("bfs chunk=%d", chunk), core.Config{
			Graph:    g,
			Program:  bspalg.BFSProgram{Source: src},
			Recorder: rec,
			Costs:    &costs,
		}); err != nil {
			return nil, err
		}
		tMax := machine.Seconds(s.Model, rec.Phases(), s.Procs)
		t8 := machine.Seconds(s.Model, rec.Phases(), 8)
		res.TimeAtMax = append(res.TimeAtMax, tMax)
		res.Speedup = append(res.Speedup, t8/tMax)
	}
	return res, nil
}

// RenderHotspot prints the hotspot ablation.
func RenderHotspot(w io.Writer, r *HotspotResult, procs int) {
	fmt.Fprintln(w, "ABLATION: fetch-and-add allocation chunk (hotspot serialization)")
	fmt.Fprintf(w, "  %-8s %14s %14s\n", "chunk", fmt.Sprintf("time@%dP", procs), "speedup 8->max")
	for i, c := range r.Chunks {
		fmt.Fprintf(w, "  %-8d %14.5f %13.1fx\n", c, r.TimeAtMax[i], r.Speedup[i])
	}
	fmt.Fprintln(w, "chunk=1 serializes every message on one memory word, flattening scalability")
}

// CombinerResult is the output of AblationCombiner.
type CombinerResult struct {
	// Plain and Combined are total CC times at Setup.Procs.
	Plain, Combined float64
	// DeliveredPlain and DeliveredCombined are total delivered messages.
	DeliveredPlain, DeliveredCombined int64
	Supersteps                        int
}

// AblationCombiner toggles the min-combiner on BSP connected components.
func AblationCombiner(g *graph.Graph, s Setup) (*CombinerResult, error) {
	s = s.withDefaults()
	plainRec := trace.NewRecorder()
	plain, err := s.run("plain cc", core.Config{Graph: g, Program: bspalg.CCProgram{}, Recorder: plainRec})
	if err != nil {
		return nil, err
	}
	combRec := trace.NewRecorder()
	comb, err := s.run("combined cc", core.Config{Graph: g, Program: bspalg.CCProgram{}, Recorder: combRec, Combiner: core.Min})
	if err != nil {
		return nil, err
	}
	for v := range plain.States {
		if plain.States[v] != comb.States[v] {
			return nil, fmt.Errorf("experiments: combiner changed results at vertex %d", v)
		}
	}
	res := &CombinerResult{
		Plain:      machine.Seconds(s.Model, plainRec.Phases(), s.Procs),
		Combined:   machine.Seconds(s.Model, combRec.Phases(), s.Procs),
		Supersteps: plain.Supersteps,
	}
	for _, d := range plain.DeliveredPerStep {
		res.DeliveredPlain += d
	}
	for _, d := range comb.DeliveredPerStep {
		res.DeliveredCombined += d
	}
	return res, nil
}

// RenderCombiner prints the combiner ablation.
func RenderCombiner(w io.Writer, r *CombinerResult, procs int) {
	fmt.Fprintln(w, "ABLATION: Pregel min-combiner on BSP connected components")
	fmt.Fprintf(w, "  plain:    %.5fs at %dP, %d messages delivered\n", r.Plain, procs, r.DeliveredPlain)
	fmt.Fprintf(w, "  combined: %.5fs at %dP, %d messages delivered (%.1f%% fewer)\n",
		r.Combined, procs, r.DeliveredCombined,
		100*(1-float64(r.DeliveredCombined)/float64(r.DeliveredPlain)))
}

// SensitivityResult is the output of SensitivityMachine.
type SensitivityResult struct {
	Latencies    []int
	LatencyTimes []float64 // GraphCT CC time at Setup.Procs per latency
	Streams      []int
	StreamTimes  []float64 // same, per streams-per-processor
}

// SensitivityMachine sweeps the machine model's memory latency and
// streams-per-processor over a fixed BSP CC profile, exposing
// the latency-tolerance mechanism: with enough streams, time is
// insensitive to latency; starve the streams and latency bites.
func SensitivityMachine(g *graph.Graph, s Setup) (*SensitivityResult, error) {
	s = s.withDefaults()
	rec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, rec, s.engineOpts(true)...); err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	res := &SensitivityResult{
		Latencies: []int{100, 300, 600, 1200, 2400},
		Streams:   []int{8, 32, 128, 512},
	}
	for _, lat := range res.Latencies {
		cfg := machine.DefaultConfig()
		cfg.MemLatency = lat
		res.LatencyTimes = append(res.LatencyTimes,
			machine.Seconds(machine.NewAnalytic(cfg), rec.Phases(), s.Procs))
	}
	for _, st := range res.Streams {
		cfg := machine.DefaultConfig()
		cfg.StreamsPerProc = st
		res.StreamTimes = append(res.StreamTimes,
			machine.Seconds(machine.NewAnalytic(cfg), rec.Phases(), s.Procs))
	}
	return res, nil
}

// RenderSensitivity prints the machine sensitivity sweep.
func RenderSensitivity(w io.Writer, r *SensitivityResult, procs int) {
	fmt.Fprintln(w, "SENSITIVITY: machine parameters (BSP CC profile)")
	fmt.Fprintf(w, "  memory latency sweep at %dP:\n", procs)
	for i, lat := range r.Latencies {
		fmt.Fprintf(w, "    L=%5d cycles: %.5fs\n", lat, r.LatencyTimes[i])
	}
	fmt.Fprintf(w, "  streams-per-processor sweep at %dP:\n", procs)
	for i, st := range r.Streams {
		fmt.Fprintf(w, "    S=%5d: %.5fs\n", st, r.StreamTimes[i])
	}
}
