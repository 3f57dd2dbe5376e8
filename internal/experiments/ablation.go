package experiments

import (
	"fmt"
	"io"
	"strconv"

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
//   - ablationActivation removes the full per-superstep vertex scan
//     (paper: early/late BSP iterations cost "two orders of magnitude"
//     more than shared memory).
//   - ablationHotspot varies the chunk size of fetch-and-add buffer
//     allocation (paper: "serialization around a single atomic
//     fetch-and-add is possible, inhibiting scalability").
//   - ablationCombiner toggles Pregel's combiner optimization on the
//     min-label connected components.
//   - sensitivityMachine sweeps memory latency and streams-per-processor
//     to show which regimes each kernel sits in.

// activationResult is the output of ablationActivation.
type activationResult struct {
	Procs []int
	// FullScan[s][i] and Sparse[s][i] are per-superstep BFS times at
	// Procs[i] under the two runtimes.
	FullScan [][]float64
	Sparse   [][]float64
	// Totals at the largest processor count.
	FullScanTotal, SparseTotal float64
}

// ablationActivation runs BSP BFS under the paper's full-scan runtime and
// under a sparse-activation worklist runtime, and compares per-superstep
// times. Results (distances) are identical; only scheduling work differs.
func ablationActivation(g *graph.Graph, s Setup) (*activationResult, error) {
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

	procs := machine.ProcSweep(s.Procs)
	res := &activationResult{
		Procs:    procs,
		FullScan: stepTimes(s.Model, fullRec.Phases(), procs, true),
		Sparse:   stepTimes(s.Model, sparseRec.Phases(), procs, true),
	}
	res.FullScanTotal = machine.Seconds(s.Model, fullRec.Phases(), s.Procs)
	res.SparseTotal = machine.Seconds(s.Model, sparseRec.Phases(), s.Procs)
	return res, nil
}

// render prints the activation ablation.
func (r *activationResult) render(w io.Writer) {
	fmt.Fprintln(w, "ABLATION: per-superstep vertex scan (paper runtime) vs sparse activation")
	fmt.Fprintln(w, "BSP BFS, full scan:")
	renderSteps(w, "level", 6, r.Procs, r.FullScan)
	fmt.Fprintln(w, "BSP BFS, sparse activation:")
	renderSteps(w, "level", 6, r.Procs, r.Sparse)
	fmt.Fprintf(w, "Totals at %d procs: full scan %.5fs, sparse %.5fs (%.2fx)\n",
		r.Procs[len(r.Procs)-1], r.FullScanTotal, r.SparseTotal,
		r.FullScanTotal/r.SparseTotal)
}

func (r *activationResult) csv() ([]string, [][]string) {
	return levelCSV(r.Procs, series{"full-scan", r.FullScan}, series{"sparse", r.Sparse})
}

// hotspotResult is the output of ablationHotspot.
type hotspotResult struct {
	procs int
	// Chunks lists the fetch-and-add allocation chunk sizes swept.
	Chunks []int64
	// TimeAtMax[i] is total BSP BFS time at Setup.Procs for Chunks[i].
	TimeAtMax []float64
	// Speedup[i] is the 8 -> Procs speedup for Chunks[i]; serialized
	// allocation (chunk 1) flattens it.
	Speedup []float64
}

// ablationHotspot sweeps the message-buffer allocation chunk size, the
// knob controlling how hard sends serialize on the single global
// fetch-and-add cursor.
func ablationHotspot(g *graph.Graph, s Setup) (*hotspotResult, error) {
	src := g.MaxDegreeVertex()
	res := &hotspotResult{procs: s.Procs, Chunks: []int64{1, 4, 16, 64, 256}}
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

// render prints the hotspot ablation.
func (r *hotspotResult) render(w io.Writer) {
	fmt.Fprintln(w, "ABLATION: fetch-and-add allocation chunk (hotspot serialization)")
	fmt.Fprintf(w, "  %-8s %14s %14s\n", "chunk", fmt.Sprintf("time@%dP", r.procs), "speedup 8->max")
	for i, c := range r.Chunks {
		fmt.Fprintf(w, "  %-8d %14.5f %13.1fx\n", c, r.TimeAtMax[i], r.Speedup[i])
	}
	fmt.Fprintln(w, "chunk=1 serializes every message on one memory word, flattening scalability")
}

// csv emits one row per chunk size.
func (r *hotspotResult) csv() ([]string, [][]string) {
	var rows [][]string
	for i, c := range r.Chunks {
		rows = append(rows, []string{itoa(c), ftoa(r.TimeAtMax[i]), ftoa(r.Speedup[i])})
	}
	return []string{"chunk", fmt.Sprintf("t_%dp", r.procs), "speedup"}, rows
}

// combinerResult is the output of ablationCombiner.
type combinerResult struct {
	procs int
	// Plain and Combined are total CC times at Setup.Procs.
	Plain, Combined float64
	// DeliveredPlain and DeliveredCombined are total delivered messages.
	DeliveredPlain, DeliveredCombined int64
	Supersteps                        int
}

// ablationCombiner toggles the min-combiner on BSP connected components.
func ablationCombiner(g *graph.Graph, s Setup) (*combinerResult, error) {
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
	res := &combinerResult{
		procs:      s.Procs,
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

// render prints the combiner ablation.
func (r *combinerResult) render(w io.Writer) {
	fmt.Fprintln(w, "ABLATION: Pregel min-combiner on BSP connected components")
	fmt.Fprintf(w, "  plain:    %.5fs at %dP, %d messages delivered\n", r.Plain, r.procs, r.DeliveredPlain)
	fmt.Fprintf(w, "  combined: %.5fs at %dP, %d messages delivered (%.1f%% fewer)\n",
		r.Combined, r.procs, r.DeliveredCombined,
		100*(1-float64(r.DeliveredCombined)/float64(r.DeliveredPlain)))
}

func (r *combinerResult) csv() ([]string, [][]string) {
	return nameValueCSV("plain_s", r.Plain, "combined_s", r.Combined,
		"delivered_plain", r.DeliveredPlain, "delivered_combined", r.DeliveredCombined, "supersteps", r.Supersteps)
}

// sensitivityResult is the output of sensitivityMachine.
type sensitivityResult struct {
	procs        int
	Latencies    []int
	LatencyTimes []float64 // GraphCT CC time at Setup.Procs per latency
	Streams      []int
	StreamTimes  []float64 // same, per streams-per-processor
}

// sensitivityMachine sweeps the machine model's memory latency and
// streams-per-processor over a fixed BSP CC profile, exposing
// the latency-tolerance mechanism: with enough streams, time is
// insensitive to latency; starve the streams and latency bites.
func sensitivityMachine(g *graph.Graph, s Setup) (*sensitivityResult, error) {
	rec := trace.NewRecorder()
	if _, err := bspalg.ConnectedComponents(g, rec, s.Engine...); err != nil {
		return nil, fmt.Errorf("experiments: bsp cc: %w", err)
	}
	res := &sensitivityResult{
		procs:     s.Procs,
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

// render prints the machine sensitivity sweep.
func (r *sensitivityResult) render(w io.Writer) {
	fmt.Fprintln(w, "SENSITIVITY: machine parameters (BSP CC profile)")
	fmt.Fprintf(w, "  memory latency sweep at %dP:\n", r.procs)
	for i, lat := range r.Latencies {
		fmt.Fprintf(w, "    L=%5d cycles: %.5fs\n", lat, r.LatencyTimes[i])
	}
	fmt.Fprintf(w, "  streams-per-processor sweep at %dP:\n", r.procs)
	for i, st := range r.Streams {
		fmt.Fprintf(w, "    S=%5d: %.5fs\n", st, r.StreamTimes[i])
	}
}

// csv emits one row per swept parameter value.
func (r *sensitivityResult) csv() ([]string, [][]string) {
	var rows [][]string
	for i, lat := range r.Latencies {
		rows = append(rows, []string{"mem_latency", strconv.Itoa(lat), ftoa(r.LatencyTimes[i])})
	}
	for i, st := range r.Streams {
		rows = append(rows, []string{"streams_per_proc", strconv.Itoa(st), ftoa(r.StreamTimes[i])})
	}
	return []string{"parameter", "value", fmt.Sprintf("t_%dp", r.procs)}, rows
}
