package core_test

// The programming model's semantics on small hand-checked runs: halting,
// message delivery and reactivation, aggregators, combiners, budgets and the
// charged profile.

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// program is a Program built from its Compute.
type program func(v *core.VertexContext)

func (program) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p program) Compute(v *core.VertexContext)        { p(v) }

// pingProgram: vertex 0 sends 42 to its neighbors in superstep 0;
// receivers record the largest message and halt.
func pingProgram(v *core.VertexContext) {
	if v.Superstep() == 0 && v.ID() == 0 {
		v.SendToNeighbors(42)
	}
	for _, m := range v.Messages() {
		v.SetState(max(v.State(), m))
	}
	v.VoteToHalt()
}

// relay forwards a token along a ring for hops hops: halted vertices are
// reactivated by messages. A vertex's state counts its visits.
func relay(hops int64) program {
	return func(v *core.VertexContext) {
		if v.Superstep() == 0 && v.ID() == 0 {
			v.Send(1, 1)
		}
		for _, m := range v.Messages() {
			v.SetState(v.State() + 1)
			if m < hops {
				v.Send((v.ID()+1)%v.NumVertices(), m+1)
			}
		}
		v.VoteToHalt()
	}
}

// TestRunSemantics runs small programs whose every outcome is known.
func TestRunSemantics(t *testing.T) {
	halt := program(func(v *core.VertexContext) { v.VoteToHalt() })
	var inbox []int64 // what vertex 0 received, in order
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		prog core.Program
		want func(res *core.Result) bool
	}{
		{"all-halt", gen.Ring(8), halt, func(r *core.Result) bool { return r.Supersteps == 1 && r.ActivePerStep[0] == 8 }},
		{"empty-graph", graph.MustBuild(0, nil, graph.BuildOptions{}), halt, func(r *core.Result) bool {
			return r.Supersteps == 1 && len(r.States) == 0
		}},
		// Only vertices with messages run in superstep 1; the hub keeps 0.
		{"messages-cross-the-boundary", gen.Star(5), program(pingProgram), func(r *core.Result) bool {
			return r.Supersteps == 2 && slices.Equal(r.States, []int64{0, 42, 42, 42, 42}) &&
				r.ActivePerStep[1] == 4 && slices.Equal(r.MessagesPerStep, []int64{4, 0})
		}},
		// The token visits 1, 2, 3, 4, 0, 1, 2; termination is detected
		// within the final superstep, so 7 hops take 8 supersteps.
		{"halted-reactivate", gen.Ring(5), relay(7), func(r *core.Result) bool {
			return slices.Equal(r.States, []int64{1, 2, 2, 1, 1}) && r.Supersteps == 8
		}},
		// A vertex may message any vertex it can identify: 3 is no
		// neighbor of 0 on the path.
		{"send-to-any-vertex", gen.Path(4), program(func(v *core.VertexContext) {
			if v.Superstep() == 0 && v.ID() == 0 {
				v.Send(3, 99)
			}
			for _, m := range v.Messages() {
				v.SetState(m)
			}
			v.VoteToHalt()
		}), func(r *core.Result) bool { return r.States[3] == 99 }},
		{"aggregators", gen.Star(6), program(func(v *core.VertexContext) {
			v.Aggregate("degsum", v.Degree(), core.Sum)
			v.Aggregate("maxid", v.ID(), func(a, b int64) int64 { return max(a, b) })
			v.Aggregate("minid", v.ID(), core.Min)
			v.VoteToHalt()
		}), func(r *core.Result) bool {
			return r.Aggregates["degsum"] == 10 && r.Aggregates["maxid"] == 5 && r.Aggregates["minid"] == 0
		}},
		// Delivery is stable, so an inbox holds its messages in global send
		// order — vertex order within a superstep — a guarantee programs may
		// rely on for reproducibility (not for semantics).
		{"inbox-send-order", gen.Ring(6), program(func(v *core.VertexContext) {
			if v.Superstep() == 0 {
				v.Send(0, v.ID())
			} else if v.ID() == 0 {
				inbox = append(inbox, v.Messages()...)
			}
			v.VoteToHalt()
		}), func(*core.Result) bool { return slices.Equal(inbox, []int64{0, 1, 2, 3, 4, 5}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(core.Config{Graph: tc.g, Program: tc.prog})
			if err != nil || !tc.want(res) {
				t.Fatalf("%+v, %v", res, err)
			}
		})
	}
}

// TestRunErrors: a run without a graph or a program, one that outruns
// MaxSupersteps and one that sends past the message cap fail.
func TestRunErrors(t *testing.T) {
	chatty := program(func(v *core.VertexContext) { v.SendToNeighbors(1) })
	capped := core.Config{Graph: gen.Complete(16), Program: chatty, MaxSupersteps: 3}
	core.WithMessageCap(10)(&capped)
	for want, cfg := range map[string]core.Config{
		"nil graph":   {Program: chatty},
		"nil program": {Graph: gen.Ring(4)},
		"convergence": {Graph: gen.Ring(4), Program: chatty, MaxSupersteps: 5},
		"cap":         capped,
	} {
		if _, err := core.Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v", want, err)
		}
	}
}

// TestCombinerPreservesResult: combining gives the same states in as many
// supersteps, and never delivers more.
func TestCombinerPreservesResult(t *testing.T) {
	g := rmat(9, 12)
	plain, err := core.Run(core.Config{Graph: g, Program: minFlood{}})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := core.Run(core.Config{Graph: g, Program: minFlood{}, Combiner: core.Min})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plain.States, combined.States) || plain.Supersteps != combined.Supersteps {
		t.Fatalf("combining changed the result: %d vs %d supersteps", plain.Supersteps, combined.Supersteps)
	}
	for i := range combined.DeliveredPerStep {
		if combined.DeliveredPerStep[i] > plain.DeliveredPerStep[i] {
			t.Fatalf("step %d: combined delivered %d > plain %d", i, combined.DeliveredPerStep[i], plain.DeliveredPerStep[i])
		}
	}
}

func TestProfileCharging(t *testing.T) {
	g := gen.Star(5)
	rec := trace.NewRecorder()
	costs := core.DefaultCosts()
	res, err := core.Run(core.Config{Graph: g, Program: program(pingProgram), Recorder: rec, Costs: &costs})
	if err != nil {
		t.Fatal(err)
	}
	phases, scans := rec.PhasesNamed("bsp/superstep"), rec.PhasesNamed("bsp/scan")
	if len(phases) != res.Supersteps || len(scans) != res.Supersteps {
		t.Fatalf("%d superstep and %d scan phases, %d supersteps", len(phases), len(scans), res.Supersteps)
	}
	// Every superstep has a scan region covering the full vertex set.
	n := g.NumVertices()
	for i, sp := range scans {
		if sp.Loads != costs.ScanLoadsPerVertex*n || sp.Tasks != n {
			t.Fatalf("scan %d: loads %d tasks %d", i, sp.Loads, sp.Tasks)
		}
	}
	// Superstep 0: all 5 active + 4 sends. Superstep 1: 4 active receiving
	// 1 message each, no sends.
	p0, p1 := phases[0], phases[1]
	if want := costs.ActiveLoadsPerVertex*5 + costs.SendLoadsPerMsg*4 + costs.DeliverLoadsPerMsg*4; p0.Loads != want {
		t.Fatalf("superstep 0 loads = %d, want %d", p0.Loads, want)
	}
	if p0.Hot[trace.HotMsgCounter] != (4+costs.HotMsgChunk-1)/costs.HotMsgChunk {
		t.Fatalf("superstep 0 hot = %d", p0.Hot[trace.HotMsgCounter])
	}
	if want := costs.ActiveLoadsPerVertex*4 + costs.RecvLoadsPerMsg*4; p1.Loads != want || p1.Stores != costs.ActiveStoresPerVertex*4 {
		t.Fatalf("superstep 1 loads = %d, stores = %d; want %d, %d", p1.Loads, p1.Stores, want, costs.ActiveStoresPerVertex*4)
	}
}

func TestSparseActivationReducesScanCharges(t *testing.T) {
	g := rmat(10, 3)
	var scans [2][]*trace.Phase
	for i, sparse := range []bool{false, true} {
		rec := trace.NewRecorder()
		if _, err := core.Run(core.Config{Graph: g, Program: minFlood{}, Recorder: rec, SparseActivation: sparse}); err != nil {
			t.Fatal(err)
		}
		scans[i] = rec.PhasesNamed("bsp/scan")
	}
	if len(scans[0]) != len(scans[1]) {
		t.Fatalf("scan phase counts differ: %d vs %d", len(scans[0]), len(scans[1]))
	}
	// Every full scan covers n vertices; sparse scans cover at most that,
	// and a quarter of it at most in the converged tail.
	n := g.NumVertices()
	for i := range scans[0] {
		if scans[0][i].Tasks != n || scans[1][i].Tasks > n {
			t.Fatalf("scan %d covers %d vertices, sparse %d; n = %d", i, scans[0][i].Tasks, scans[1][i].Tasks, n)
		}
	}
	if last := scans[1][len(scans[1])-1]; last.Tasks*4 > n {
		t.Fatalf("tail sparse scan covers %d of %d vertices; worklist not shrinking", last.Tasks, n)
	}
}

// TestUnicastLogConcurrentRuns: runs in one process share the block and
// flat-buffer pools; a block owned twice would corrupt somebody's count.
func TestUnicastLogConcurrentRuns(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 7}))
	want := graph.ReferenceTriangles(g)
	defer par.SetWorkers(par.SetWorkers(3))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if tc, err := bspalg.Triangles(g, nil); err != nil || tc.Count != want {
					t.Errorf("concurrent run: %v triangles (err %v), reference %d", tc, err, want)
				}
			}
		}()
	}
	wg.Wait()
}
