package bspalg

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/par"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

func randomGraph(seed uint64, n int64, m int) *graph.Graph {
	r := rng.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

func TestBSPCCMatchesReferenceAndGraphCT(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		g := randomGraph(seed, 60, 90)
		bsp, err := ConnectedComponents(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ReferenceComponents(g)
		ct := graphct.ConnectedComponents(g, nil)
		for v := range want {
			if bsp.Labels[v] != want[v] {
				t.Fatalf("seed %d: bsp labels[%d] = %d, want %d", seed, v, bsp.Labels[v], want[v])
			}
			if ct.Labels[v] != want[v] {
				t.Fatalf("seed %d: graphct labels[%d] = %d, want %d", seed, v, ct.Labels[v], want[v])
			}
		}
	}
}

func TestBSPCCNeedsMoreIterationsThanSharedMemory(t *testing.T) {
	// The paper's central CC observation: messages cannot move forward
	// within a superstep, so BSP needs at least ~2x the iterations of the
	// label-propagating shared-memory kernel on small-world graphs.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.ConnectedComponents(g, nil)
	if bsp.Supersteps < ct.Iterations {
		t.Fatalf("bsp %d supersteps < graphct %d iterations", bsp.Supersteps, ct.Iterations)
	}
	// Label flooding moves the minimum one hop per superstep; the
	// shared-memory sweep propagates within an iteration.
	if float64(bsp.Supersteps) < 1.5*float64(ct.Iterations) {
		t.Logf("warning: bsp %d vs graphct %d below the 2x the paper reports",
			bsp.Supersteps, ct.Iterations)
	}
}

func TestBSPCCActiveSetCollapses(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := bsp.ActivePerStep[0]
	last := bsp.ActivePerStep[len(bsp.ActivePerStep)-1]
	if first != g.NumVertices() {
		t.Fatalf("superstep 0 active = %d, want all %d", first, g.NumVertices())
	}
	if last*10 > first {
		t.Fatalf("final active %d not a small fraction of %d", last, first)
	}
}

func TestBSPCCCombinedEquivalent(t *testing.T) {
	g := randomGraph(3, 100, 250)
	plain, err := ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := core.Run(core.Config{Graph: g, Program: CCProgram{}, Combiner: core.Min})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Supersteps != combined.Supersteps {
		t.Fatalf("supersteps: %d vs %d", plain.Supersteps, combined.Supersteps)
	}
	for v := range plain.Labels {
		if plain.Labels[v] != combined.States[v] {
			t.Fatal("combiner changed the result")
		}
	}
}

func TestBSPBFSMatchesReferenceAndGraphCT(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		g := randomGraph(seed, 50, 80)
		bsp, err := BFS(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ReferenceBFS(g, 0)
		ct := graphct.BFS(g, 0, nil)
		for v := range want {
			if bsp.Dist[v] != want[v] {
				t.Fatalf("seed %d: bsp dist[%d] = %d, want %d", seed, v, bsp.Dist[v], want[v])
			}
			if ct.Dist[v] != want[v] {
				t.Fatalf("seed %d: graphct dist[%d] = %d, want %d", seed, v, ct.Dist[v], want[v])
			}
		}
	}
}

func TestBSPBFSMessagesExceedFrontier(t *testing.T) {
	// Figure 2's observation: a message goes to every neighbor of the
	// frontier, so messages >= next frontier at every level, and messages
	// equal edges incident on the frontier.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Root at the largest-degree vertex for a full traversal.
	var src int64
	var best int64 = -1
	for v := int64(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > best {
			best, src = d, v
		}
	}
	bsp, err := BFS(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.BFS(g, src, nil)
	// Frontier sizes agree with the shared-memory BFS levels.
	if len(bsp.FrontierPerStep) != len(ct.FrontierSizes) {
		t.Fatalf("levels: %d vs %d", len(bsp.FrontierPerStep), len(ct.FrontierSizes))
	}
	for i := range ct.FrontierSizes {
		if bsp.FrontierPerStep[i] != ct.FrontierSizes[i] {
			t.Fatalf("level %d: frontier %d vs %d", i, bsp.FrontierPerStep[i], ct.FrontierSizes[i])
		}
	}
	// Messages in superstep s = edges incident on the level-s frontier.
	for s := 0; s < len(ct.EdgesScanned) && s < len(bsp.MessagesPerStep); s++ {
		if bsp.MessagesPerStep[s] != ct.EdgesScanned[s] {
			t.Fatalf("superstep %d: messages %d != frontier edges %d",
				s, bsp.MessagesPerStep[s], ct.EdgesScanned[s])
		}
		if s+1 < len(bsp.FrontierPerStep) && bsp.MessagesPerStep[s] < bsp.FrontierPerStep[s+1] {
			t.Fatalf("superstep %d: messages %d < next frontier %d",
				s, bsp.MessagesPerStep[s], bsp.FrontierPerStep[s+1])
		}
	}
	// Aggregate message excess: every frontier vertex messages all of its
	// neighbors, so total messages track total frontier-incident edges —
	// an order of magnitude above the frontier itself on an edge-factor-16
	// graph (Figure 2's gap).
	var totalMsgs, totalFrontier int64
	for _, m := range bsp.MessagesPerStep {
		totalMsgs += m
	}
	for _, f := range bsp.FrontierPerStep {
		totalFrontier += f
	}
	if totalMsgs < 5*totalFrontier {
		t.Fatalf("total messages %d not >> total frontier %d", totalMsgs, totalFrontier)
	}
}

func TestBSPBFSDistanceEdgeProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%40) + 2
		g := randomGraph(seed, n, int(mRaw%120))
		res, err := BFS(g, 0, nil)
		if err != nil {
			return false
		}
		for v := int64(0); v < n; v++ {
			for _, w := range g.Neighbors(v) {
				dv, dw := res.Dist[v], res.Dist[w]
				if (dv < 0) != (dw < 0) {
					return false
				}
				if dv >= 0 && (dv-dw > 1 || dw-dv > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", gen.Complete(4), 4},
		{"K6", gen.Complete(6), 20},
		{"ring", gen.Ring(12), 0},
		{"cliquechain", gen.CliqueChain(3, 4), 12},
	}
	for _, c := range cases {
		res, err := Triangles(c.g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != c.want {
			t.Fatalf("%s: bsp triangles = %d, want %d", c.name, res.Count, c.want)
		}
		// Triangle-bearing graphs need the full 4 supersteps (notification
		// delivery); triangle-free runs terminate one step earlier.
		wantSteps := 4
		if c.want == 0 {
			wantSteps = 3
		}
		if res.Supersteps != wantSteps {
			t.Fatalf("%s: supersteps = %d, want %d", c.name, res.Supersteps, wantSteps)
		}
	}
}

func TestBSPTrianglesMatchGraphCTProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%25) + 3
		g := randomGraph(seed, n, int(mRaw%100))
		bsp, err := Triangles(g, nil)
		if err != nil {
			return false
		}
		return bsp.Count == graphct.Triangles(g, nil).Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPTrianglesMessageBlowup(t *testing.T) {
	// The candidate messages of superstep 1 must dwarf the triangle count
	// on a sparse graph (5.5e9 vs 30.9M in the paper — which notes its
	// RMAT input "contains far fewer triangles than a real-world graph").
	g, err := gen.ErdosRenyi(1<<12, 1<<15, 14)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Triangles(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Skip("degenerate sample with no triangles")
	}
	if res.CandidateMessages < 50*res.Count {
		t.Fatalf("candidates %d not >> triangles %d", res.CandidateMessages, res.Count)
	}
	// Total BSP writes (messages) vastly exceed GraphCT's one write per
	// triangle.
	ct := graphct.Triangles(g, nil)
	if res.TotalMessages < 50*ct.Writes {
		t.Fatalf("bsp writes %d vs graphct %d: blowup too small", res.TotalMessages, ct.Writes)
	}
	// On the skewed RMAT input the blowup is smaller at small scale but
	// must still be a multiple.
	rm, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := Triangles(rm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Count > 0 && rres.CandidateMessages < 2*rres.Count {
		t.Fatalf("rmat candidates %d vs triangles %d", rres.CandidateMessages, rres.Count)
	}
}

// oracleTC is Algorithm 3 as the paper writes it: superstep 1 sends
// message-major, and superstep 2 binary-searches the neighbors below v for
// each candidate. TCProgram must deliver the same inboxes and record the
// same Result and profile.
type oracleTC struct{}

func (oracleTC) InitialState(*graph.Graph, int64) int64 { return 0 }

func (oracleTC) Compute(v *core.VertexContext) {
	switch v.Superstep() {
	case 0:
		nbr := v.Neighbors()
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v.ID() })
		v.Charge(int64(len(nbr)), int64(len(nbr)), 0)
		for _, n := range nbr[i:] {
			v.Send(n, v.ID())
		}
	case 1:
		nbr := v.Neighbors()
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] > v.ID() })
		v.Charge(int64(len(v.Messages()))*int64(len(nbr)),
			int64(len(v.Messages()))*int64(len(nbr)), 0)
		for _, m := range v.Messages() {
			if m >= v.ID() {
				continue
			}
			for _, n := range nbr[i:] {
				v.Send(n, m)
			}
		}
	case 2:
		nbr := v.Neighbors()
		lows := nbr[:below(nbr, v.ID())]
		msgs := v.Messages()
		searchCost := int64(bits.Len64(uint64(len(nbr))) + 1)
		v.Charge(searchCost*int64(len(msgs)), searchCost*int64(len(msgs)), 0)
		var found int64
		for _, m := range msgs {
			if i := below(lows, m); i < len(lows) && lows[i] == m {
				v.Send(m, 1)
				found++
			}
		}
		if found > 0 {
			v.Aggregate("triangles", found, core.Sum)
		}
	}
	v.VoteToHalt()
}

// inboxFold runs p and folds every inbox a vertex is handed into its state,
// hashing the sequence, so Result.States compares what each vertex
// received and in what order.
type inboxFold struct {
	p core.Program
}

func (f inboxFold) InitialState(g *graph.Graph, v int64) int64 { return f.p.InitialState(g, v) }

func (f inboxFold) Compute(v *core.VertexContext) {
	h := uint64(v.State())
	step := uint64(v.Superstep()) << 48
	for _, m := range v.Messages() {
		h = rng.Mix64(h ^ step ^ uint64(m))
	}
	v.SetState(int64(h))
	f.p.Compute(v)
}

// phaseView is a Phase without its mutex, for whole-value comparison.
type phaseView struct {
	Name                                           string
	Index                                          int
	Tasks, Issue, Loads, Stores, MaxTask, Barriers int64
	Hot                                            [trace.NumHotClasses]int64
}

func phaseViews(rec *trace.Recorder) []phaseView {
	var out []phaseView
	for _, p := range rec.Phases() {
		out = append(out, phaseView{p.Name, p.Index, p.Tasks, p.Issue, p.Loads, p.Stores,
			p.MaxTask, p.Barriers, p.Hot})
	}
	return out
}

// checkTCMatchesOracle runs oracleTC at one worker, then TCProgram at one,
// two and three, both under inboxFold, and StreamingTriangles, and reports
// the first difference in Result (every inbox folded into States,
// Aggregates, MessagesPerStep) or recorded profile.
func checkTCMatchesOracle(t *testing.T, g *graph.Graph) {
	t.Helper()
	run := func(p core.Program, w int) (*core.Result, []phaseView) {
		defer par.SetWorkers(par.SetWorkers(w))
		rec := trace.NewRecorder()
		res, err := core.Run(core.Config{Graph: g, Program: inboxFold{p}, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res, phaseViews(rec)
	}
	want, wantPh := run(oracleTC{}, 1)
	for _, w := range []int{1, 2, 3} {
		got, gotPh := run(TCProgram{}, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: Result differs from the oracle's\n  aggregates %v vs %v\n  msgs %v vs %v\n  states equal: %t",
				w, got.Aggregates, want.Aggregates, got.MessagesPerStep, want.MessagesPerStep,
				reflect.DeepEqual(got.States, want.States))
		}
		if !reflect.DeepEqual(gotPh, wantPh) {
			t.Fatalf("w=%d: profile = %+v, oracle %+v", w, gotPh, wantPh)
		}
	}
	rec := trace.NewRecorder()
	got, err := StreamingTriangles(g, rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := newTCResult(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("StreamingTriangles = %+v, engine %+v", got, want)
	}
	if got := phaseViews(rec); !reflect.DeepEqual(got, wantPh) {
		t.Fatalf("StreamingTriangles profile = %+v, engine %+v", got, wantPh)
	}
}

// TestBSPTrianglesMatchOracle: TCProgram against oracleTC, and
// StreamingTriangles against both, on RMAT, shaped and small random graphs.
// Each graph is rebuilt from its edge list as given, with a self-loop on
// every third vertex, with a reversed second copy of every other edge, and
// with both: Build must collapse each back to the simple graph, and TC must
// match the oracle on what it built.
func TestBSPTrianglesMatchOracle(t *testing.T) {
	type row struct {
		name string
		g    *graph.Graph
	}
	var rows []row
	for scale := 6; scale <= 11; scale++ {
		for seed := uint64(1); seed <= 3; seed++ {
			edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{fmt.Sprintf("rmat-s%d-seed%d", scale, seed), graph.MustBuild(n, edges, graph.BuildOptions{})})
		}
	}
	rows = append(rows,
		row{"complete7", gen.Complete(7)},
		row{"cliquechain", gen.CliqueChain(4, 5)},
		row{"star", gen.Star(33)},
		row{"path", gen.Path(20)},
		row{"grid", gen.Grid(6, 7)},
		row{"empty", graph.MustBuild(0, nil, graph.BuildOptions{})},
		row{"n1", graph.MustBuild(1, nil, graph.BuildOptions{})},
	)
	// Random graphs from sparse to near-complete (40 vertices have 780
	// possible edges).
	for _, m := range []int{40, 160, 640} {
		for seed := uint64(0); seed < 10; seed++ {
			name := fmt.Sprintf("random40-m%d-seed%d", m, seed)
			if m == 160 {
				name = fmt.Sprintf("random40-seed%d", seed)
			}
			rows = append(rows, row{name, randomGraph(seed, 40, m)})
		}
	}
	for _, r := range rows {
		for _, loops := range []bool{false, true} {
			for _, dups := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/loops%t-dups%t", r.name, loops, dups), func(t *testing.T) {
					edges := r.g.EdgeList()
					if loops {
						for v := int64(0); v < r.g.NumVertices(); v += 3 {
							edges = append(edges, graph.Edge{U: v, V: v})
						}
					}
					if dups {
						for i, m := 0, len(edges); i < m; i += 2 {
							edges = append(edges, graph.Edge{U: edges[i].V, V: edges[i].U})
						}
					}
					g := graph.MustBuild(r.g.NumVertices(), edges, graph.BuildOptions{})
					if !slices.Equal(g.Offsets(), r.g.Offsets()) || !slices.Equal(g.Adjacency(), r.g.Adjacency()) {
						t.Fatalf("Build kept a self-loop or parallel edge: %v, want %v", g, r.g)
					}
					checkTCMatchesOracle(t, g)
				})
			}
		}
	}
}

// FuzzBSPTriangles checks TCProgram against oracleTC, and
// StreamingTriangles against both, on arbitrary edge lists: each pair of
// bytes is one edge, taken modulo the vertex count.
func FuzzBSPTriangles(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(5), []byte{0, 1, 0, 1, 1, 2, 2, 0, 3, 3, 3, 4, 4, 0})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 1, 2, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int64(nRaw % 48)
		var edges []graph.Edge
		if n > 0 {
			for i := 0; i+1 < len(data); i += 2 {
				edges = append(edges, graph.Edge{U: int64(data[i]) % n, V: int64(data[i+1]) % n})
			}
		}
		checkTCMatchesOracle(t, graph.MustBuild(n, edges, graph.BuildOptions{}))
	})
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := rng.New(seed)
		n := int64(40)
		m := 120
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		weights := gen.UniformWeights(m, 9, seed)
		g, err := graph.Build(n, edges, graph.BuildOptions{Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		bsp, err := SSSP(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceSSSP(g, 0)
		for v := range want {
			if bsp.Dist[v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, want %d", seed, v, bsp.Dist[v], want[v])
			}
		}
	}
}

func TestSSSPUnweightedPanics(t *testing.T) {
	g := gen.Ring(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unweighted graph")
		}
	}()
	_, _ = SSSP(g, 0, nil)
}

func TestSSSPEqualsBFSOnUnitWeights(t *testing.T) {
	g0 := randomGraph(5, 50, 120)
	edges := g0.EdgeList()
	weights := make([]int64, len(edges))
	for i := range weights {
		weights[i] = 1
	}
	g, err := graph.Build(g0.NumVertices(), edges, graph.BuildOptions{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SSSP(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := BFS(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range sp.Dist {
		if sp.Dist[v] != bfs.Dist[v] {
			t.Fatalf("dist[%d]: sssp %d vs bfs %d", v, sp.Dist[v], bfs.Dist[v])
		}
	}
}

func TestBSPPageRankMatchesGraphCT(t *testing.T) {
	g := randomGraph(8, 60, 200)
	rounds := 40
	bsp, err := PageRank(g, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.PageRank(g, graphct.PageRankOptions{MaxIterations: rounds, Tolerance: 1e-14}, nil)
	// The two formulations differ in dangling-mass handling; on a graph
	// where every vertex has degree > 0 they coincide.
	hasIsolated := false
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			hasIsolated = true
		}
	}
	if hasIsolated {
		t.Skip("sample has isolated vertices")
	}
	for v := range bsp.Rank {
		if math.Abs(bsp.Rank[v]-ct.Rank[v]) > 1e-4 {
			t.Fatalf("rank[%d]: bsp %v vs graphct %v", v, bsp.Rank[v], ct.Rank[v])
		}
	}
}

func TestBSPPageRankRingUniform(t *testing.T) {
	res, err := PageRank(gen.Ring(10), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Rank {
		if math.Abs(r-0.1) > 1e-6 {
			t.Fatalf("rank[%d] = %v", v, r)
		}
	}
}

func TestBFSUnreachableNormalized(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	res, err := BFS(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != -1 || res.Dist[3] != -1 {
		t.Fatalf("dist = %v", res.Dist)
	}
	if res.Dist[1] != 1 {
		t.Fatalf("dist[1] = %d", res.Dist[1])
	}
	// FrontierPerStep only covers reached levels.
	if len(res.FrontierPerStep) != 2 || res.FrontierPerStep[0] != 1 || res.FrontierPerStep[1] != 1 {
		t.Fatalf("frontier = %v", res.FrontierPerStep)
	}
}

func TestSSSPBothModelsMatchDijkstra(t *testing.T) {
	// The shared-memory Bellman-Ford kernel and the BSP program must agree
	// with each other and with Dijkstra, and the BSP variant needs at
	// least as many iterations (staleness, as with connected components).
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed)
		n := int64(50)
		m := 160
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{
			Weights: gen.UniformWeights(m, 9, seed)})
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceSSSP(g, 0)
		bsp, err := SSSP(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := graphct.BellmanFordSSSP(g, 0, nil)
		for v := range want {
			if bsp.Dist[v] != want[v] {
				t.Fatalf("seed %d: bsp dist[%d] = %d, want %d", seed, v, bsp.Dist[v], want[v])
			}
			if ct.Dist[v] != want[v] {
				t.Fatalf("seed %d: bellman-ford dist[%d] = %d, want %d", seed, v, ct.Dist[v], want[v])
			}
		}
		if bsp.Supersteps < ct.Iterations {
			t.Fatalf("seed %d: bsp %d supersteps < shared-memory %d sweeps",
				seed, bsp.Supersteps, ct.Iterations)
		}
	}
}

func TestBellmanFordUnweightedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	graphct.BellmanFordSSSP(gen.Ring(4), 0, nil)
}

func TestBellmanFordInvalidSource(t *testing.T) {
	g, err := graph.Build(3, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{Weights: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	res := graphct.BellmanFordSSSP(g, -1, nil)
	for _, d := range res.Dist {
		if d != -1 {
			t.Fatal("invalid source should reach nothing")
		}
	}
}

func TestBSPApproxDiameterMatchesSharedMemory(t *testing.T) {
	cases := []*graph.Graph{
		gen.Path(10), gen.Ring(12), gen.Star(9), gen.BinaryTree(31),
		randomGraph(4, 50, 200),
	}
	for i, g := range cases {
		bsp, err := approxDiameter(g, 0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := graphct.ApproxDiameter(g, 0, 4, nil)
		if bsp != ct {
			t.Fatalf("case %d: bsp diameter %d vs shared-memory %d", i, bsp, ct)
		}
	}
	if d, err := approxDiameter(gen.Ring(4), -1, 4, nil); err != nil || d != -1 {
		t.Fatalf("invalid start: %d, %v", d, err)
	}
}

// greedyMIS is the sequential shared-memory reference: scan vertices in
// order, adding each whose neighbors are all outside the set. Used to
// cross-check the MIS invariants (the sets themselves legitimately differ).
func greedyMIS(g *graph.Graph) []int64 {
	n := g.NumVertices()
	in := make([]int64, n)
	for v := int64(0); v < n; v++ {
		in[v] = 1
		for _, w := range g.Neighbors(v) {
			if in[w] == 1 && w != v {
				in[v] = 0
				break
			}
		}
	}
	return in
}

// mis runs the mis row's BSP runner: Answer marks the members with 1.
func mis(g *graph.Graph, seed uint64) (Out, error) {
	return Lookup("mis").BSP(g, Params{Seed: seed}, nil)
}

func TestMISValidOnKnownGraphs(t *testing.T) {
	cases := []*graph.Graph{
		gen.Ring(10), gen.Star(9), gen.Complete(7), gen.Path(11),
		gen.BinaryTree(31), gen.CliqueChain(3, 5), gen.Grid(5, 5),
	}
	for i, g := range cases {
		res, err := mis(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !validateMIS(g, res.Answer) {
			t.Fatalf("case %d: invalid MIS", i)
		}
		// Greedy reference also validates (sanity on the validator).
		if !validateMIS(g, greedyMIS(g)) {
			t.Fatalf("case %d: greedy MIS invalid", i)
		}
	}
	// K7: any MIS has exactly one member.
	res, err := mis(gen.Complete(7), 7)
	if err != nil {
		t.Fatal(err)
	}
	if members := sum(res.Answer); members != 1 {
		t.Fatalf("K7 MIS has %d members", members)
	}
}

func TestMISProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%40) + 1
		g := randomGraph(seed, n, int(mRaw%150))
		res, err := mis(g, seed^0xabc)
		if err != nil {
			return false
		}
		return validateMIS(g, res.Answer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMISDeterministicAndFast(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := mis(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mis(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Answer, b.Answer) {
		t.Fatal("MIS not deterministic")
	}
	if !validateMIS(g, a.Answer) {
		t.Fatal("invalid MIS on RMAT")
	}
	// Luby converges in O(log n) rounds (two supersteps each) with high
	// probability.
	if rounds := (a.Steps + 1) / 2; rounds > 20 {
		t.Fatalf("rounds = %d, expected O(log n)", rounds)
	}
	// Different seeds generally give different sets.
	c, err := mis(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Answer, c.Answer) {
		t.Log("warning: identical MIS across seeds (possible but unlikely)")
	}
}

func TestValidateMISCatchesViolations(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	// Adjacent members: not independent.
	if validateMIS(g, []int64{1, 1, 0, 0}) {
		t.Fatal("validator accepted adjacent members")
	}
	// Not maximal: vertex 3 uncovered.
	if validateMIS(g, []int64{1, 0, 0, 0}) {
		t.Fatal("validator accepted non-maximal set")
	}
	// Valid: {0, 2} covers everything... 3 is adjacent to 2.
	if !validateMIS(g, []int64{1, 0, 1, 0}) {
		t.Fatal("validator rejected a valid MIS")
	}
}
