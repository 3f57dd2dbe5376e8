package core

import (
	"runtime"
	"testing"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/gen"
)

// TestBoundaryAllocationIsConstant: from the third boundary on, a
// checkpointed boundary refills the arrays of the snapshot two back and
// encodes into the run's payload buffer, so what it allocates does not
// grow with the graph or its traffic. At 2^17 vertices one copy of the
// states is 1 MiB and the payload 2.6 MiB; a boundary — record, and the
// periodic write it starts, joined, with a prune that verifies — must stay
// under 64 KiB.
func TestBoundaryAllocationIsConstant(t *testing.T) {
	const n = 1 << 17
	g := gen.Path(n)
	tr := &traffic{g: g, bufs: &gatherPool{size: 2 * g.MaxDegree()}}
	for v := range int64(4096) {
		tr.sends.add(v*7919%n, v)
	}
	tr.sends.seal()
	for v := int64(0); v < n; v += 2 {
		tr.bcasts = append(tr.bcasts, bcastRec{src: v, val: v, seq: tr.sends.sealed})
	}
	res := &Result{States: make([]int64, n)}
	halted := make([]uint64, n/64)
	master := &engineState{graph: g, states: res.States,
		aggregates:     map[string]*aggregator{"sum": {value: 1, seeded: true}},
		prevAggregates: map[string]int64{"sum": 0}}
	ds := startDir(&Config{}, g)
	ck := &ckptRun{policy: &ckpt.Policy{Dir: t.TempDir(), Keep: 2}, everyN: 1}

	var before, after runtime.MemStats
	for step := range 12 {
		res.States[step] = int64(step + 1)
		halted[step] = 1
		res.ActivePerStep = append(res.ActivePerStep, n)
		res.MessagesPerStep = append(res.MessagesPerStep, n)
		res.DeliveredPerStep = append(res.DeliveredPerStep, n)
		res.DirectionPerStep = append(res.DirectionPerStep, DirPush)
		runtime.ReadMemStats(&before)
		err := ck.atBoundary(step, n-int64(step+1), res, halted, tr, master, ds, nil)
		if err == nil {
			err = ck.join() // the boundary's write, whole
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("boundary %d: %d B", step, got)
		if step >= 2 && got > 64<<10 {
			t.Errorf("boundary %d allocated %d B; from the third boundary on, want under 64 KiB", step, got)
		}
		if s := ck.snap; s.Step != int64(step) || s.States[step] != int64(step+1) || len(s.BcastSrc) != len(tr.bcasts) {
			t.Fatalf("boundary %d: snapshot holds step %d", step, s.Step)
		}
	}
}
