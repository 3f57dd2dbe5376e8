package core_test

// What an attached sink costs a near-empty superstep: the engine-side
// bookkeeping and the two sinks a live run keeps attached must not allocate
// per superstep, and pacing the memory samples by wall clock must not lose
// the samples the report's first/last/peak line is made of.

import (
	"bytes"
	"strings"
	"testing"

	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/obs"
)

// TestObservedRelayAllocBudget: the 1024-superstep relay of
// BenchmarkEngineSparseRelayObs under Tee(Report, Metrics) stays within two
// allocations per superstep, run set-up included (the parent commit spent
// 14: a WorkerBusy slice per span, a map per report row, procfs reads).
func TestObservedRelayAllocBudget(t *testing.T) {
	const n = 1 << 16
	g := gen.Ring(n)
	var res *core.Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		res, err = core.Run(core.Config{
			Graph:            g,
			Program:          benchRelay{hops: 1024, n: n},
			SparseActivation: true,
			MaxSupersteps:    2000,
			Obs:              obs.Tee(obs.NewReport(), obs.NewMetrics(nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Supersteps < 1024 {
		t.Fatalf("relay ran %d supersteps", res.Supersteps)
	}
	if perStep := allocs / float64(res.Supersteps); perStep > 2 {
		t.Fatalf("%.0f allocations over %d supersteps = %.2f per superstep, budget 2", allocs, res.Supersteps, perStep)
	}
}

// memCapture keeps the memory samples of a run.
type memCapture struct {
	stepCapture
	mem []obs.MemSample
}

func (c *memCapture) Mem(m obs.MemSample) { c.mem = append(c.mem, m) }

// TestMemSamplesSurvivePacing: a run far shorter than the sampling gap
// still hands the sink a sample at its first superstep and one at its end,
// in order, which is all the report's "heap first -> last (peak)" line
// needs.
func TestMemSamplesSurvivePacing(t *testing.T) {
	c, report := &memCapture{}, obs.NewReport()
	res, err := core.Run(core.Config{Graph: gen.Ring(64), Program: benchRelay{hops: 5, n: 64}, Obs: obs.Tee(c, report)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps < 3 {
		t.Fatalf("run has %d supersteps, want at least 3", res.Supersteps)
	}
	if len(c.mem) < 2 {
		t.Fatalf("%d memory samples from a %d-superstep run, want at least 2", len(c.mem), res.Supersteps)
	}
	first, last := c.mem[0], c.mem[len(c.mem)-1]
	if first.Step != 0 || last.Step != res.Supersteps-1 || last.At < first.At {
		t.Fatalf("samples at steps %d..%d (%v..%v), want 0..%d in time order", first.Step, last.Step, first.At, last.At, res.Supersteps-1)
	}
	for _, m := range c.mem {
		if m.HeapAlloc == 0 || m.HeapSys == 0 {
			t.Fatalf("empty sample %+v", m)
		}
	}
	var buf bytes.Buffer
	if err := report.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mem: heap ") {
		t.Fatalf("report lost its memory line:\n%s", buf.String())
	}
}
