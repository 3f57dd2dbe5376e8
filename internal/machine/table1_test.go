package machine_test

import (
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/gen"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// TestTable1UnderDES evaluates Table I's three pairs, at a scale the DES
// simulates op by op, under both models. They must tell the same story:
// GraphCT wins every row, and each side's time agrees within 3x. The DES
// fails the test on any phase over its op cap, so every number here is
// simulated, none answered by the analytic model. Each row is a subtest
// named by its BSP kernel, so a failure names the row.
func TestTable1UnderDES(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	analytic := machine.NewAnalytic(cfg)
	p := bspalg.Params{Source: g.MaxDegreeVertex()}
	for _, row := range []struct{ bsp, twin string }{{"cc", "cc"}, {"bfs", "bfs"}, {"tc-streaming", "tc"}} {
		t.Run(row.bsp, func(t *testing.T) {
			des := machine.NewDES(t, cfg)
			bspRec, ctRec := trace.NewRecorder(), trace.NewRecorder()
			if _, err := bspalg.Lookup(row.bsp).BSP(g, p, bspRec); err != nil {
				t.Fatal(err)
			}
			bspalg.Lookup(row.twin).Twin(g, p, ctRec)
			var desTimes [2]float64
			for i, rec := range []*trace.Recorder{bspRec, ctRec} {
				d := machine.Seconds(des, rec.Phases(), cfg.Procs)
				a := machine.Seconds(analytic, rec.Phases(), cfg.Procs)
				if r := d / a; r < 1/3.0 || r > 3.0 {
					t.Errorf("side %d: DES %.5fs vs analytic %.5fs (ratio %.2f)", i, d, a, r)
				}
				desTimes[i] = d
			}
			if desTimes[0] < desTimes[1] {
				t.Errorf("DES has BSP %.5fs beating GraphCT %.5fs", desTimes[0], desTimes[1])
			}
		})
	}
}
