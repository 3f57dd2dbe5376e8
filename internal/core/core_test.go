package core

import (
	"strings"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// haltProgram votes to halt immediately without sending.
type haltProgram struct{}

func (haltProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (haltProgram) Compute(v *VertexContext)               { v.VoteToHalt() }

func TestRunTerminatesWhenAllHalt(t *testing.T) {
	g := gen.Ring(8)
	res, err := Run(Config{Graph: g, Program: haltProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", res.Supersteps)
	}
	if res.ActivePerStep[0] != 8 {
		t.Fatalf("superstep 0 active = %d, want all", res.ActivePerStep[0])
	}
}

// pingProgram: vertex 0 sends its ID to neighbors at step 0; receivers
// record the max message then halt.
type pingProgram struct{}

func (pingProgram) InitialState(*graph.Graph, int64) int64 { return -1 }
func (pingProgram) Compute(v *VertexContext) {
	if v.Superstep() == 0 {
		if v.ID() == 0 {
			v.SendToNeighbors(42)
		}
		v.VoteToHalt()
		return
	}
	best := v.State()
	for _, m := range v.Messages() {
		if m > best {
			best = m
		}
	}
	v.SetState(best)
	v.VoteToHalt()
}

func TestMessagesCrossSuperstepBoundary(t *testing.T) {
	g := gen.Star(5) // 0 is the hub
	res, err := Run(Config{Graph: g, Program: pingProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 2 {
		t.Fatalf("supersteps = %d, want 2", res.Supersteps)
	}
	for v := int64(1); v < 5; v++ {
		if res.States[v] != 42 {
			t.Fatalf("state[%d] = %d, want 42", v, res.States[v])
		}
	}
	if res.States[0] != -1 {
		t.Fatalf("hub state = %d, want unchanged", res.States[0])
	}
	// Only vertices with messages run in superstep 1.
	if res.ActivePerStep[1] != 4 {
		t.Fatalf("superstep 1 active = %d, want 4", res.ActivePerStep[1])
	}
	if res.MessagesPerStep[0] != 4 || res.MessagesPerStep[1] != 0 {
		t.Fatalf("messages = %v", res.MessagesPerStep)
	}
}

// relayProgram forwards a token along a ring exactly k hops, proving that
// halted vertices are reactivated by messages.
type relayProgram struct{ hops int64 }

func (relayProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p relayProgram) Compute(v *VertexContext) {
	if v.Superstep() == 0 {
		if v.ID() == 0 {
			v.Send((v.ID()+1)%v.NumVertices(), 1)
		}
		v.VoteToHalt()
		return
	}
	for _, m := range v.Messages() {
		v.SetState(v.State() + 1)
		if m < p.hops {
			v.Send((v.ID()+1)%v.NumVertices(), m+1)
		}
	}
	v.VoteToHalt()
}

func TestHaltedVerticesReactivateOnMessage(t *testing.T) {
	g := gen.Ring(5)
	res, err := Run(Config{Graph: g, Program: relayProgram{hops: 7}})
	if err != nil {
		t.Fatal(err)
	}
	// Token visits vertices 1,2,3,4,0,1,2 — vertex 1 and 2 twice.
	if res.States[1] != 2 || res.States[2] != 2 || res.States[3] != 1 {
		t.Fatalf("states = %v", res.States)
	}
	// Step 0 plus 7 hop steps; termination is detected within the final
	// superstep (no extra empty step runs).
	if res.Supersteps != 8 {
		t.Fatalf("supersteps = %d", res.Supersteps)
	}
}

// floodMin floods the minimum ID; used to test combiners (min-combinable).
type floodMin struct{}

func (floodMin) InitialState(_ *graph.Graph, v int64) int64 { return v }
func (floodMin) Compute(v *VertexContext) {
	changed := false
	st := v.State()
	for _, m := range v.Messages() {
		if m < st {
			st = m
			changed = true
		}
	}
	if changed {
		v.SetState(st)
	}
	if v.Superstep() == 0 || changed {
		v.SendToNeighbors(st)
	}
	v.VoteToHalt()
}

func TestCombinerPreservesResult(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Graph: g, Program: floodMin{}})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(Config{Graph: g, Program: floodMin{}, Combiner: Min})
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.States {
		if plain.States[v] != combined.States[v] {
			t.Fatalf("state[%d]: %d vs %d", v, plain.States[v], combined.States[v])
		}
	}
	if plain.Supersteps != combined.Supersteps {
		t.Fatalf("supersteps differ: %d vs %d", plain.Supersteps, combined.Supersteps)
	}
	// Combining must not increase delivered messages.
	for i := range combined.DeliveredPerStep {
		if combined.DeliveredPerStep[i] > plain.DeliveredPerStep[i] {
			t.Fatalf("step %d: combined delivered %d > plain %d",
				i, combined.DeliveredPerStep[i], plain.DeliveredPerStep[i])
		}
	}
}

// aggProgram exercises aggregators.
type aggProgram struct{}

func (aggProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (aggProgram) Compute(v *VertexContext) {
	v.Aggregate("degsum", v.Degree(), Sum)
	v.Aggregate("maxid", v.ID(), Max)
	v.Aggregate("minid", v.ID(), Min)
	v.VoteToHalt()
}

func TestAggregators(t *testing.T) {
	g := gen.Star(6)
	res, err := Run(Config{Graph: g, Program: aggProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates["degsum"] != g.NumEdges() {
		t.Fatalf("degsum = %d, want %d", res.Aggregates["degsum"], g.NumEdges())
	}
	if res.Aggregates["maxid"] != 5 || res.Aggregates["minid"] != 0 {
		t.Fatalf("aggregates = %v", res.Aggregates)
	}
}

func TestRunErrors(t *testing.T) {
	g := gen.Ring(4)
	if _, err := Run(Config{Program: haltProgram{}}); err == nil {
		t.Fatal("nil graph should error")
	}
	if _, err := Run(Config{Graph: g}); err == nil {
		t.Fatal("nil program should error")
	}
}

// chattyProgram never halts and always sends, to exercise the superstep
// bound and the message cap.
type chattyProgram struct{}

func (chattyProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (chattyProgram) Compute(v *VertexContext)               { v.SendToNeighbors(1) }

func TestMaxSuperstepsEnforced(t *testing.T) {
	g := gen.Ring(4)
	_, err := Run(Config{Graph: g, Program: chattyProgram{}, MaxSupersteps: 5})
	if err == nil || !strings.Contains(err.Error(), "convergence") {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageCapEnforced(t *testing.T) {
	g := gen.Complete(16)
	_, err := Run(Config{Graph: g, Program: chattyProgram{}, MaxSupersteps: 3,
		MaxMessagesPerSuperstep: 10})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v", err)
	}
}

func TestProfileCharging(t *testing.T) {
	g := gen.Star(5)
	rec := trace.NewRecorder()
	costs := DefaultCosts()
	res, err := Run(Config{Graph: g, Program: pingProgram{}, Recorder: rec, Costs: &costs})
	if err != nil {
		t.Fatal(err)
	}
	phases := rec.PhasesNamed("bsp/superstep")
	if len(phases) != res.Supersteps {
		t.Fatalf("phases = %d, supersteps = %d", len(phases), res.Supersteps)
	}
	n := g.NumVertices()
	// Every superstep has a scan region covering the full vertex set.
	scans := rec.PhasesNamed("bsp/scan")
	if len(scans) != res.Supersteps {
		t.Fatalf("scan phases = %d, supersteps = %d", len(scans), res.Supersteps)
	}
	for i, sp := range scans {
		if sp.Loads != costs.ScanLoadsPerVertex*n || sp.Tasks != n {
			t.Fatalf("scan %d: loads %d tasks %d", i, sp.Loads, sp.Tasks)
		}
	}
	// Superstep 0: all 5 active + 4 sends.
	p0 := phases[0]
	wantLoads := costs.ActiveLoadsPerVertex*5 +
		costs.SendLoadsPerMsg*4 + costs.DeliverLoadsPerMsg*4
	if p0.Loads != wantLoads {
		t.Fatalf("superstep 0 loads = %d, want %d", p0.Loads, wantLoads)
	}
	if p0.Hot[trace.HotMsgCounter] != costs.hotOps(4) {
		t.Fatalf("superstep 0 hot = %d", p0.Hot[trace.HotMsgCounter])
	}
	// Superstep 1: 4 active receiving 1 message each, no sends.
	p1 := phases[1]
	wantLoads1 := costs.ActiveLoadsPerVertex*4 + costs.RecvLoadsPerMsg*4
	if p1.Loads != wantLoads1 {
		t.Fatalf("superstep 1 loads = %d, want %d", p1.Loads, wantLoads1)
	}
	if p1.Stores != costs.ActiveStoresPerVertex*4 {
		t.Fatalf("superstep 1 stores = %d", p1.Stores)
	}
}

func TestDeliverNoCombiner(t *testing.T) {
	buf := []Message{{Dest: 2, Value: 5}, {Dest: 0, Value: 1}, {Dest: 2, Value: 7}}
	ib := newInbox(3, nil)
	delivered, _ := (&runScratch{}).deliver(logTraffic(buf, 3), ib, nil, DirAuto)
	off, val := ib.off, ib.val
	if delivered != 3 {
		t.Fatalf("delivered = %d", delivered)
	}
	if off[0] != 0 || off[1] != 1 || off[2] != 1 || off[3] != 3 {
		t.Fatalf("offsets = %v", off)
	}
	if val[0] != 1 {
		t.Fatalf("vertex 0 inbox = %v", val[0:1])
	}
	got := val[off[2]:off[3]]
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("vertex 2 inbox = %v", got)
	}
}

func TestDeliverWithCombiner(t *testing.T) {
	buf := []Message{{Dest: 1, Value: 5}, {Dest: 1, Value: 3}, {Dest: 1, Value: 9}}
	ib := newInbox(2, Min)
	delivered, _ := (&runScratch{}).deliver(logTraffic(buf, 2), ib, nil, DirAuto)
	off, val := ib.off, ib.val
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	inbox := val[off[1]:off[2]]
	if len(inbox) != 1 || inbox[0] != 3 {
		t.Fatalf("combined inbox = %v", inbox)
	}
	if off[1]-off[0] != 0 {
		t.Fatal("vertex 0 should have empty inbox")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil, graph.BuildOptions{})
	res, err := Run(Config{Graph: g, Program: haltProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 || len(res.States) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSendToArbitraryVertex(t *testing.T) {
	// A vertex may message any vertex it can identify, not only neighbors.
	g := gen.Path(4)
	res, err := Run(Config{Graph: g, Program: farSend{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.States[3] != 99 {
		t.Fatalf("state[3] = %d", res.States[3])
	}
}

type farSend struct{}

func (farSend) InitialState(*graph.Graph, int64) int64 { return 0 }
func (farSend) Compute(v *VertexContext) {
	if v.Superstep() == 0 && v.ID() == 0 {
		v.Send(3, 99) // not a neighbor on the path
	}
	for _, m := range v.Messages() {
		v.SetState(m)
	}
	v.VoteToHalt()
}

func TestSparseActivationEquivalence(t *testing.T) {
	// Sparse activation must not change any observable result: states,
	// superstep counts, active counts, message counts.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []Program{floodMin{}, pingProgram{}, relayProgram{hops: 5}} {
		full, err := Run(Config{Graph: g, Program: prog})
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := Run(Config{Graph: g, Program: prog, SparseActivation: true})
		if err != nil {
			t.Fatal(err)
		}
		if full.Supersteps != sparse.Supersteps {
			t.Fatalf("%T: supersteps %d vs %d", prog, full.Supersteps, sparse.Supersteps)
		}
		for v := range full.States {
			if full.States[v] != sparse.States[v] {
				t.Fatalf("%T: state[%d] differs", prog, v)
			}
		}
		for s := range full.ActivePerStep {
			if full.ActivePerStep[s] != sparse.ActivePerStep[s] {
				t.Fatalf("%T: active[%d] %d vs %d", prog, s,
					full.ActivePerStep[s], sparse.ActivePerStep[s])
			}
			if full.MessagesPerStep[s] != sparse.MessagesPerStep[s] {
				t.Fatalf("%T: messages[%d] differ", prog, s)
			}
		}
	}
}

func TestSparseActivationReducesScanCharges(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullRec := trace.NewRecorder()
	if _, err := Run(Config{Graph: g, Program: floodMin{}, Recorder: fullRec}); err != nil {
		t.Fatal(err)
	}
	sparseRec := trace.NewRecorder()
	if _, err := Run(Config{Graph: g, Program: floodMin{}, Recorder: sparseRec,
		SparseActivation: true}); err != nil {
		t.Fatal(err)
	}
	fullScans := fullRec.PhasesNamed("bsp/scan")
	sparseScans := sparseRec.PhasesNamed("bsp/scan")
	if len(fullScans) != len(sparseScans) {
		t.Fatalf("scan phase counts differ: %d vs %d", len(fullScans), len(sparseScans))
	}
	// Every full scan covers n vertices; sparse scans cover at most that,
	// and strictly less in the converged tail.
	n := g.NumVertices()
	for i := range fullScans {
		if fullScans[i].Tasks != n {
			t.Fatalf("full scan %d covers %d, want %d", i, fullScans[i].Tasks, n)
		}
		if sparseScans[i].Tasks > n {
			t.Fatalf("sparse scan %d covers %d > n", i, sparseScans[i].Tasks)
		}
	}
	lastSparse := sparseScans[len(sparseScans)-1]
	if lastSparse.Tasks*4 > n {
		t.Fatalf("tail sparse scan covers %d of %d vertices; worklist not shrinking",
			lastSparse.Tasks, n)
	}
}

// aggReader checks Pregel aggregator visibility: values aggregated in
// superstep s are readable in superstep s+1, and nothing is visible at
// superstep 0.
type aggReader struct {
	sawAtStep0 bool
	read       []int64
}

func (*aggReader) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p *aggReader) Compute(v *VertexContext) {
	if v.Superstep() == 0 {
		if _, ok := v.PreviousAggregate("count"); ok {
			p.sawAtStep0 = true
		}
	} else if v.ID() == 0 {
		if val, ok := v.PreviousAggregate("count"); ok {
			p.read = append(p.read, val)
		}
	}
	v.Aggregate("count", 1, Sum)
	if v.Superstep() < 2 {
		v.SendToNeighbors(1) // keep the computation alive two more steps
	}
	v.VoteToHalt()
}

func TestPreviousAggregateVisibility(t *testing.T) {
	g := gen.Ring(5)
	prog := &aggReader{}
	res, err := Run(Config{Graph: g, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if prog.sawAtStep0 {
		t.Fatal("aggregate visible at superstep 0")
	}
	if len(prog.read) == 0 {
		t.Fatal("no aggregate snapshots read")
	}
	// After superstep 0 (all 5 vertices aggregated 1), vertex 0 reads 5.
	if prog.read[0] != 5 {
		t.Fatalf("superstep-1 snapshot = %d, want 5", prog.read[0])
	}
	// Aggregators are cumulative across the run.
	var totalActive int64
	for _, a := range res.ActivePerStep {
		totalActive += a
	}
	if res.Aggregates["count"] != totalActive {
		t.Fatalf("final aggregate %d, want %d", res.Aggregates["count"], totalActive)
	}
}

// orderProgram records the order messages arrive at vertex 0.
type orderProgram struct{ got []int64 }

func (*orderProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (p *orderProgram) Compute(v *VertexContext) {
	if v.Superstep() == 0 {
		// Every vertex sends its ID to vertex 0; sends happen in
		// ascending vertex order because the engine runs vertices in
		// order within a superstep.
		v.Send(0, v.ID())
		v.VoteToHalt()
		return
	}
	if v.ID() == 0 {
		p.got = append(p.got, v.Messages()...)
	}
	v.VoteToHalt()
}

func TestInboxPreservesSendOrder(t *testing.T) {
	// The delivery counting sort is stable, so a vertex's inbox holds
	// messages in global send order — a documented determinism guarantee
	// programs may rely on for reproducibility (not for semantics).
	g := gen.Ring(6)
	prog := &orderProgram{}
	if _, err := Run(Config{Graph: g, Program: prog}); err != nil {
		t.Fatal(err)
	}
	if len(prog.got) != 6 {
		t.Fatalf("messages = %v", prog.got)
	}
	for i, m := range prog.got {
		if m != int64(i) {
			t.Fatalf("inbox order = %v, want ascending", prog.got)
		}
	}
}
