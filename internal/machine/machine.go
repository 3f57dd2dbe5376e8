// Package machine models the Cray XMT's execution of a recorded work
// profile. It is the substitution for the paper's hardware (see DESIGN.md):
// graphxmt has no 128-processor Threadstorm machine, so kernels execute on
// the host for correctness and this package converts their work profiles
// into simulated XMT time.
//
// # The machine being modeled
//
// Each Threadstorm processor holds 128 hardware streams and issues one
// instruction per cycle from any stream that is ready. A stream that issues
// a memory operation blocks until the (long-latency, network-hashed) memory
// system responds; with enough ready streams the processor never stalls.
// This gives the XMT its defining behaviour, and gives the paper its
// scalability arguments:
//
//   - Issue-bound: with >= 128 concurrent tasks per processor, throughput is
//     one op per cycle per processor -> time ~ work/P: linear scaling.
//   - Latency-bound: with fewer tasks than hardware streams, memory latency
//     cannot be hidden -> time ~ (memory ops x latency)/concurrency, which
//     stops improving once P*128 exceeds the available parallelism: the
//     flat scaling the paper shows for small BFS frontiers and the tail
//     iterations of BSP connected components.
//   - Hotspot-bound: atomic fetch-and-adds aimed at one memory word retire
//     serially at that word regardless of P: the reduced scalability the
//     paper attributes to message-queue counters.
//
// Analytic implements this with closed-form bounds; it consumes
// trace.Phase profiles and is deterministic. Every published number comes
// from it. Its oracle, a discrete-event stream simulator, lives in this
// package's tests (TestModelsAgree) and substitutes for it through Model.
package machine

import (
	"fmt"
	"math"

	"graphxmt/internal/trace"
)

// Config holds the hardware parameters of the simulated machine. The zero
// value is not valid; use DefaultConfig (the PNNL system in the paper).
type Config struct {
	// ClockHz is the processor clock; Threadstorm runs at 500 MHz.
	ClockHz float64
	// StreamsPerProc is the number of hardware streams per processor (128).
	StreamsPerProc int
	// MemLatency is the round-trip latency of a global memory operation in
	// cycles. The XMT's hashed memory makes all accesses remote; several
	// hundred cycles is the published ballpark.
	MemLatency int
	// HotspotCycles is the minimum spacing, in cycles, between successive
	// atomic fetch-and-adds retiring at one memory word.
	HotspotCycles int
	// BarrierBase and BarrierPerLogP give the cost in cycles of a full
	// machine barrier: BarrierBase + BarrierPerLogP * log2(P).
	BarrierBase    int
	BarrierPerLogP int
	// DispatchCycles is the fixed cost of starting a parallel region
	// (runtime loop spawn / teardown), charged once per phase.
	DispatchCycles int
	// Procs is the number of processors of the full machine (128 at PNNL);
	// experiment sweeps go up to this.
	Procs int
}

// DefaultConfig returns the configuration of the 128-processor Cray XMT at
// PNNL described in the paper.
func DefaultConfig() Config {
	return Config{
		ClockHz:        500e6,
		StreamsPerProc: 128,
		MemLatency:     600,
		HotspotCycles:  6,
		BarrierBase:    3000,
		BarrierPerLogP: 300,
		DispatchCycles: 2500,
		Procs:          128,
	}
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	switch {
	case c.ClockHz <= 0:
		return fmt.Errorf("machine: ClockHz %v <= 0", c.ClockHz)
	case c.StreamsPerProc <= 0:
		return fmt.Errorf("machine: StreamsPerProc %d <= 0", c.StreamsPerProc)
	case c.MemLatency <= 0:
		return fmt.Errorf("machine: MemLatency %d <= 0", c.MemLatency)
	case c.HotspotCycles <= 0:
		return fmt.Errorf("machine: HotspotCycles %d <= 0", c.HotspotCycles)
	case c.Procs <= 0:
		return fmt.Errorf("machine: Procs %d <= 0", c.Procs)
	case c.BarrierBase < 0 || c.BarrierPerLogP < 0 || c.DispatchCycles < 0:
		return fmt.Errorf("machine: negative overhead parameters")
	}
	return nil
}

// barrierCycles returns the cost of one full barrier across procs.
func (c Config) barrierCycles(procs int) float64 {
	return float64(c.BarrierBase) + float64(c.BarrierPerLogP)*math.Log2(float64(procs)+1)
}

// Seconds converts cycles to seconds under this configuration.
func (c Config) Seconds(cycles float64) float64 { return cycles / c.ClockHz }

// Model converts a recorded phase into simulated time on procs processors.
type Model interface {
	// PhaseCycles returns the simulated execution time of one phase, in
	// cycles, on the given number of processors.
	PhaseCycles(p *trace.Phase, procs int) float64
	// Config returns the hardware parameters in use.
	Config() Config
}

// Seconds runs every phase of a profile through the model and returns total
// simulated seconds on procs processors.
func Seconds(m Model, phases []*trace.Phase, procs int) float64 {
	var cycles float64
	for _, p := range phases {
		cycles += m.PhaseCycles(p, procs)
	}
	return m.Config().Seconds(cycles)
}

// PhaseSeconds returns per-phase simulated seconds on procs processors.
func PhaseSeconds(m Model, phases []*trace.Phase, procs int) []float64 {
	out := make([]float64, len(phases))
	for i, p := range phases {
		out[i] = m.Config().Seconds(m.PhaseCycles(p, procs))
	}
	return out
}

// ProcSweep holds the standard processor counts of the paper's scaling
// figures: doubling from 8 up to the machine size.
func ProcSweep(maxProcs int) []int {
	var out []int
	for p := 8; p <= maxProcs; p *= 2 {
		out = append(out, p)
	}
	if len(out) == 0 {
		out = []int{maxProcs}
	}
	return out
}
