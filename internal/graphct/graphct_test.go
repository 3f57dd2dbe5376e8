package graphct

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/machine"
	"graphxmt/internal/rng"
	"graphxmt/internal/trace"
)

func randomGraph(seed uint64, n int64, m int) *graph.Graph {
	r := rng.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{SortAdjacency: true})
}

func TestConnectedComponentsMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := randomGraph(seed, 60, 90)
		got := ConnectedComponents(g, nil)
		want := graph.ReferenceComponents(g)
		for v := range want {
			if got.Labels[v] != want[v] {
				t.Fatalf("seed %d: labels[%d] = %d, want %d", seed, v, got.Labels[v], want[v])
			}
		}
	}
}

func TestConnectedComponentsOnRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := ConnectedComponents(g, nil)
	want := graph.ReferenceComponents(g)
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("labels[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
	// Small-world graphs converge in a handful of sweeps.
	if got.Iterations > 10 {
		t.Fatalf("iterations = %d, expected few", got.Iterations)
	}
	// The final iteration is the fixed-point check with zero updates.
	if got.LabelUpdates[len(got.LabelUpdates)-1] != 0 {
		t.Fatal("last iteration should make no updates")
	}
}

func TestConnectedComponentsRecordsPhases(t *testing.T) {
	g := gen.Ring(32)
	rec := trace.NewRecorder()
	res := ConnectedComponents(g, rec)
	phases := rec.PhasesNamed("cc/iter")
	if len(phases) != res.Iterations {
		t.Fatalf("phases = %d, iterations = %d", len(phases), res.Iterations)
	}
	for _, p := range phases {
		if p.Tasks != g.NumEdges() {
			t.Fatalf("phase tasks = %d, want %d edges", p.Tasks, g.NumEdges())
		}
		if p.Loads != ccLoadsPerEdge*g.NumEdges() {
			t.Fatalf("phase loads = %d", p.Loads)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := randomGraph(seed, 50, 80)
		got := BFS(g, 0, nil)
		want := graph.ReferenceBFS(g, 0)
		for v := range want {
			if got.Dist[v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, want %d", seed, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestBFSFrontierAccounting(t *testing.T) {
	g := gen.Path(6) // 0-1-2-3-4-5
	rec := trace.NewRecorder()
	res := BFS(g, 0, rec)
	if res.Levels != 6 {
		t.Fatalf("levels = %d, want 6", res.Levels)
	}
	for i, f := range res.FrontierSizes {
		if f != 1 {
			t.Fatalf("frontier[%d] = %d, want 1", i, f)
		}
	}
	// Frontier sizes must sum to the reachable vertex count.
	var sum int64
	for _, f := range res.FrontierSizes {
		sum += f
	}
	if sum != 6 {
		t.Fatalf("frontier sum = %d", sum)
	}
	if len(rec.PhasesNamed("bfs/level")) != res.Levels {
		t.Fatal("one phase per level expected")
	}
}

func TestBFSInvalidSource(t *testing.T) {
	g := gen.Ring(4)
	res := BFS(g, -1, nil)
	for _, d := range res.Dist {
		if d != -1 {
			t.Fatal("invalid source should reach nothing")
		}
	}
	if res.Levels != 0 {
		t.Fatalf("levels = %d", res.Levels)
	}
}

func TestBFSEdgesScannedEqualsFrontierDegrees(t *testing.T) {
	g := randomGraph(7, 40, 100)
	res := BFS(g, 0, nil)
	// Sum of edges scanned must equal sum of degrees of reachable vertices.
	var scanned, wantScanned int64
	for _, e := range res.EdgesScanned {
		scanned += e
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		if res.Dist[v] >= 0 {
			wantScanned += g.Degree(v)
		}
	}
	if scanned != wantScanned {
		t.Fatalf("edges scanned %d, want %d", scanned, wantScanned)
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", gen.Complete(4), 4},
		{"K6", gen.Complete(6), 20},
		{"ring", gen.Ring(10), 0},
		{"tree", gen.BinaryTree(15), 0},
		{"cliquechain", gen.CliqueChain(3, 5), 30},
	}
	for _, c := range cases {
		got := Triangles(c.g, nil)
		if got.Count != c.want {
			t.Fatalf("%s: triangles = %d, want %d", c.name, got.Count, c.want)
		}
		if got.Writes != c.want {
			t.Fatalf("%s: writes = %d, want one per triangle", c.name, got.Writes)
		}
	}
}

func TestTrianglesMatchReferenceProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%25) + 3
		m := int(mRaw % 120)
		g := randomGraph(seed, n, m)
		return Triangles(g, nil).Count == graph.ReferenceTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// mergeTriangles and mergeClustering are the kernels as GraphCT writes
// them, executing the two-pointer merge per edge. They are the oracle the
// marked intersection must reproduce: result, profile and detail alike.
func mergeTriangles(g *graph.Graph, rec *trace.Recorder) *TriangleResult {
	ph := rec.StartPhase("tri/count", 0)
	recordDetail := rec.Detail() && g.NumEdges()/2 <= 1<<20
	var count, cmps, maxPair int64
	for v := int64(0); v < g.NumVertices(); v++ {
		nv := g.Neighbors(v)
		for _, u := range nv {
			if u <= v {
				continue
			}
			nu := g.Neighbors(u)
			c, steps := oracleMerge(nv, nu, u, nil)
			count += c
			cmps += steps
			maxPair = max(maxPair, int64(len(nv)+len(nu)))
			if recordDetail {
				ph.AddDetail(trace.TaskCost{Issue: uint32(steps * triIssuePerCmp), Mem: uint32(steps*triLoadsPerCmp + 2)})
			}
		}
	}
	m := g.NumEdges() / 2
	ph.AddTasks(m, triIssuePerCmp*cmps, triLoadsPerCmp*cmps+2*m, count)
	ph.ObserveTask(maxPair * (triIssuePerCmp + triLoadsPerCmp))
	return &TriangleResult{Count: count, Writes: count, CompareOps: cmps}
}

func mergeClustering(g *graph.Graph, rec *trace.Recorder) *ClusteringResult {
	n := g.NumVertices()
	perVertex := make([]int64, n)
	ph := rec.StartPhase("ccoef/count", 0)
	var count, cmps int64
	for v := int64(0); v < n; v++ {
		nv := g.Neighbors(v)
		for _, u := range nv {
			if u <= v {
				continue
			}
			c, steps := oracleMerge(nv, g.Neighbors(u), u, perVertex)
			count += c
			cmps += steps
			perVertex[v] += c
			perVertex[u] += c
		}
	}
	m := g.NumEdges() / 2
	ph.AddTasks(m, cmps, cmps+2*m, 3*count)
	res := &ClusteringResult{PerVertex: make([]float64, n), TrianglesPerVertex: perVertex, Triangles: count}
	var wedges int64
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		wedges += d * (d - 1) / 2
		if d > 1 {
			res.PerVertex[v] = float64(perVertex[v]) / float64(d*(d-1)/2)
		}
	}
	if wedges > 0 {
		res.Global = 3 * float64(count) / float64(wedges)
	}
	return res
}

func oracleMerge(a, b []int64, floor int64, perVertex []int64) (count, steps int64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] == b[j]:
			if a[i] > floor {
				count++
				if perVertex != nil {
					perVertex[a[i]]++
				}
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return count, steps
}

// phaseView is a Phase without its mutex, for whole-value comparison.
type phaseView struct {
	Name                                       string
	Index                                      int
	Tasks, Issue, Loads, Stores, MaxTask, Barr int64
	Hot                                        [trace.NumHotClasses]int64
	Detail                                     []trace.TaskCost
}

func phaseViews(rec *trace.Recorder) []phaseView {
	var out []phaseView
	for _, p := range rec.Phases() {
		out = append(out, phaseView{p.Name, p.Index, p.Tasks, p.Issue, p.Loads, p.Stores,
			p.MaxTask, p.Barriers, p.Hot, p.Detail})
	}
	return out
}

// checkTrianglesMatchMerge runs Triangles and ClusteringCoefficients and
// their merge oracles with detail recording on, and reports the first
// difference in result or recorded profile.
func checkTrianglesMatchMerge(t *testing.T, g *graph.Graph) {
	t.Helper()
	run := func(kernel func(*trace.Recorder) any) (any, []phaseView) {
		rec := trace.NewRecorder()
		rec.DetailTasks = true
		return kernel(rec), phaseViews(rec)
	}
	for _, k := range []struct {
		name      string
		got, want func(*trace.Recorder) any
	}{
		{"Triangles",
			func(r *trace.Recorder) any { return Triangles(g, r) },
			func(r *trace.Recorder) any { return mergeTriangles(g, r) }},
		{"ClusteringCoefficients",
			func(r *trace.Recorder) any { return ClusteringCoefficients(g, r) },
			func(r *trace.Recorder) any { return mergeClustering(g, r) }},
	} {
		got, gotPh := run(k.got)
		want, wantPh := run(k.want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %+v, merge oracle %+v", k.name, got, want)
		}
		if !reflect.DeepEqual(gotPh, wantPh) {
			t.Fatalf("%s profile = %+v, merge oracle %+v", k.name, gotPh, wantPh)
		}
	}
}

// buildBits maps the low three bits of b to the build options whose every
// combination the oracle is checked under.
func buildBits(b uint8) graph.BuildOptions {
	return graph.BuildOptions{Directed: b&1 != 0, KeepSelfLoops: b&2 != 0, KeepDuplicates: b&4 != 0}
}

func TestTrianglesMatchMergeOracle(t *testing.T) {
	type row struct {
		name string
		g    *graph.Graph
	}
	var rows []row
	for scale := 8; scale <= 11; scale++ {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{fmt.Sprintf("rmat-s%d-seed%d", scale, seed), g})
		}
	}
	rows = append(rows,
		row{"complete7", gen.Complete(7)},
		row{"star", gen.Star(33)},
		row{"path", gen.Path(20)},
		row{"grid", gen.Grid(6, 7)},
		row{"empty", graph.MustBuild(0, nil, graph.BuildOptions{})},
		row{"n1", graph.MustBuild(1, nil, graph.BuildOptions{})},
	)
	for bits := uint8(0); bits < 8; bits++ {
		opt := buildBits(bits)
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed)
			edges := make([]graph.Edge, 400)
			for i := range edges {
				edges[i] = graph.Edge{U: int64(r.Uint64n(40)), V: int64(r.Uint64n(40))}
			}
			rows = append(rows, row{fmt.Sprintf("random-dir%t-loops%t-dups%t-seed%d",
				opt.Directed, opt.KeepSelfLoops, opt.KeepDuplicates, seed), graph.MustBuild(40, edges, opt)})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkTrianglesMatchMerge(t, r.g) })
	}
}

// FuzzTriangles checks the marked intersection against the merge oracle on
// arbitrary edge lists under arbitrary build options: each pair of bytes
// is one edge, taken modulo the vertex count.
func FuzzTriangles(f *testing.F) {
	f.Add(uint8(0), uint8(4), []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(4), uint8(5), []byte{0, 1, 0, 1, 1, 2, 2, 0, 3, 3, 3, 4, 4, 0})
	f.Add(uint8(7), uint8(3), []byte{0, 0, 0, 1, 1, 2, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, bits, nRaw uint8, data []byte) {
		n := int64(nRaw % 48)
		var edges []graph.Edge
		if n > 0 {
			for i := 0; i+1 < len(data); i += 2 {
				edges = append(edges, graph.Edge{U: int64(data[i]) % n, V: int64(data[i+1]) % n})
			}
		}
		checkTrianglesMatchMerge(t, graph.MustBuild(n, edges, buildBits(bits)))
	})
}

func TestTrianglesRequiresSorted(t *testing.T) {
	// FromCSR with unsorted adjacency.
	g, err := graph.FromCSR(2, []int64{0, 1, 2}, []int64{1, 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Build an unsorted graph artificially: descending adjacency.
	g2, err := graph.FromCSR(3, []int64{0, 2, 3, 4}, []int64{2, 1, 0, 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.SortedAdjacency() {
		t.Skip("construction unexpectedly sorted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted adjacency")
		}
	}()
	Triangles(g2, nil)
}

func TestClusteringCoefficients(t *testing.T) {
	// Triangle with a tail: 0-1-2-0, 2-3.
	g := graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}},
		graph.BuildOptions{SortAdjacency: true})
	res := ClusteringCoefficients(g, nil)
	if res.Triangles != 1 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	if res.PerVertex[0] != 1 || res.PerVertex[1] != 1 {
		t.Fatalf("cc(0,1) = %v, %v, want 1", res.PerVertex[0], res.PerVertex[1])
	}
	// Vertex 2 has degree 3 -> 3 possible pairs, 1 closed.
	if math.Abs(res.PerVertex[2]-1.0/3) > 1e-12 {
		t.Fatalf("cc(2) = %v, want 1/3", res.PerVertex[2])
	}
	if res.PerVertex[3] != 0 {
		t.Fatalf("cc(3) = %v, want 0", res.PerVertex[3])
	}
	// Transitivity: 3*1 / (1 + 1 + 3 + 0) = 0.6.
	if math.Abs(res.Global-0.6) > 1e-12 {
		t.Fatalf("global = %v, want 0.6", res.Global)
	}
	// Per-vertex triangle counts sum to 3 * count.
	var sum int64
	for _, c := range res.TrianglesPerVertex {
		sum += c
	}
	if sum != 3*res.Triangles {
		t.Fatalf("corner sum = %d", sum)
	}
}

func TestClusteringCompleteGraph(t *testing.T) {
	res := ClusteringCoefficients(gen.Complete(7), nil)
	for v, c := range res.PerVertex {
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("cc(%d) = %v, want 1", v, c)
		}
	}
	if math.Abs(res.Global-1) > 1e-12 {
		t.Fatalf("global = %v", res.Global)
	}
}

func TestSTConnectivity(t *testing.T) {
	g := gen.Path(8)
	ok, d := STConnectivity(g, 0, 7, nil)
	if !ok || d != 7 {
		t.Fatalf("stcon = %v, %d", ok, d)
	}
	ok, d = STConnectivity(g, 3, 3, nil)
	if !ok || d != 0 {
		t.Fatalf("self stcon = %v, %d", ok, d)
	}
	// Disconnected pair.
	g2 := graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	ok, d = STConnectivity(g2, 0, 3, nil)
	if ok || d != -1 {
		t.Fatalf("disconnected stcon = %v, %d", ok, d)
	}
	if ok, _ := STConnectivity(g, -1, 2, nil); ok {
		t.Fatal("invalid source should be unreachable")
	}
}

func TestSTConnectivityMatchesBFSProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw, tRaw uint8) bool {
		n := int64(nRaw%30) + 2
		g := randomGraph(seed, n, int(mRaw%80))
		tgt := int64(tRaw) % n
		ok, d := STConnectivity(g, 0, tgt, nil)
		want := graph.ReferenceBFS(g, 0)[tgt]
		return (ok && d == want) || (!ok && want == -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKCore(t *testing.T) {
	// A K4 with a pendant: clique vertices are 3-core, pendant is 1-core.
	g := graph.MustBuild(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 4},
	}, graph.BuildOptions{SortAdjacency: true})
	res := KCore(g, nil)
	want := []int64{3, 3, 3, 3, 1}
	for v := range want {
		if res.Core[v] != want[v] {
			t.Fatalf("core = %v, want %v", res.Core, want)
		}
	}
	if res.MaxCore != 3 {
		t.Fatalf("max core = %d", res.MaxCore)
	}
}

func TestKCoreRing(t *testing.T) {
	res := KCore(gen.Ring(12), nil)
	for v, c := range res.Core {
		if c != 2 {
			t.Fatalf("ring core[%d] = %d, want 2", v, c)
		}
	}
}

func TestKCoreDefinitionProperty(t *testing.T) {
	// Every vertex with core number k must have >= k neighbors with core
	// number >= k (a standard necessary condition).
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%25) + 2
		g := randomGraph(seed, n, int(mRaw%80))
		res := KCore(g, nil)
		for v := int64(0); v < n; v++ {
			k := res.Core[v]
			var cnt int64
			for _, w := range g.Neighbors(v) {
				if res.Core[w] >= k {
					cnt++
				}
			}
			if cnt < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	g := gen.Ring(10)
	res := PageRank(g, PageRankOptions{}, nil)
	if !res.Converged {
		t.Fatal("should converge")
	}
	for v, r := range res.Rank {
		if math.Abs(r-0.1) > 1e-6 {
			t.Fatalf("rank[%d] = %v, want 0.1", v, r)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := randomGraph(3, 50, 120)
	res := PageRank(g, PageRankOptions{}, nil)
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestPageRankHubOutranksLeaves(t *testing.T) {
	g := gen.Star(20)
	res := PageRank(g, PageRankOptions{}, nil)
	for v := 1; v < 20; v++ {
		if res.Rank[0] <= res.Rank[v] {
			t.Fatalf("hub rank %v <= leaf rank %v", res.Rank[0], res.Rank[v])
		}
	}
}

func TestPageRankEmptyAndDangling(t *testing.T) {
	empty := graph.MustBuild(0, nil, graph.BuildOptions{})
	if res := PageRank(empty, PageRankOptions{}, nil); res.Rank != nil {
		t.Fatal("empty graph should produce no ranks")
	}
	// Directed chain with a dangling sink: ranks still sum to 1.
	g := graph.MustBuild(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		graph.BuildOptions{Directed: true})
	res := PageRank(g, PageRankOptions{}, nil)
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("dangling rank sum = %v", sum)
	}
	if !(res.Rank[2] > res.Rank[0]) {
		t.Fatal("sink should accumulate rank")
	}
}

func TestPageRankMaxIterations(t *testing.T) {
	g := randomGraph(9, 30, 60)
	res := PageRank(g, PageRankOptions{MaxIterations: 2, Tolerance: 1e-15}, nil)
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("iterations = %d converged = %v", res.Iterations, res.Converged)
	}
}

func TestBetweennessPath(t *testing.T) {
	// On a path 0-1-2-3-4, vertex 2 carries the most shortest paths.
	g := gen.Path(5)
	res := Betweenness(g, BetweennessOptions{}, nil)
	// Exact values (undirected double counting): v1: pairs (0,2),(0,3),(0,4) and reverse -> 6; v2: (0,3),(0,4),(1,3),(1,4) x2 = 8.
	if !(res.Score[2] > res.Score[1] && res.Score[1] > res.Score[0]) {
		t.Fatalf("scores = %v", res.Score)
	}
	if math.Abs(res.Score[2]-8) > 1e-9 {
		t.Fatalf("score[2] = %v, want 8", res.Score[2])
	}
	if res.Score[0] != 0 || res.Score[4] != 0 {
		t.Fatalf("endpoints should have zero betweenness: %v", res.Score)
	}
}

func TestBetweennessStarHub(t *testing.T) {
	g := gen.Star(10)
	res := Betweenness(g, BetweennessOptions{}, nil)
	// Hub lies on all 9*8 ordered leaf pairs.
	if math.Abs(res.Score[0]-72) > 1e-9 {
		t.Fatalf("hub score = %v, want 72", res.Score[0])
	}
	for v := 1; v < 10; v++ {
		if res.Score[v] != 0 {
			t.Fatalf("leaf %d score = %v", v, res.Score[v])
		}
	}
}

func TestBetweennessSampledDeterministic(t *testing.T) {
	g := randomGraph(11, 60, 150)
	a := Betweenness(g, BetweennessOptions{Samples: 8, Seed: 5}, nil)
	b := Betweenness(g, BetweennessOptions{Samples: 8, Seed: 5}, nil)
	for v := range a.Score {
		if a.Score[v] != b.Score[v] {
			t.Fatal("sampled betweenness not deterministic")
		}
	}
	if len(a.Sources) != 8 {
		t.Fatalf("sources = %d", len(a.Sources))
	}
}

func TestDegreesStats(t *testing.T) {
	g := gen.Star(11) // hub degree 10, leaves degree 1
	s := Degrees(g, nil)
	if s.Min != 1 || s.Max != 10 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if math.Abs(s.Mean-20.0/11) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Median != 1 {
		t.Fatalf("median = %d", s.Median)
	}
	if s.Isolated != 0 {
		t.Fatalf("isolated = %d", s.Isolated)
	}
	if s.GiniIndex <= 0 {
		t.Fatalf("gini = %v, star should be skewed", s.GiniIndex)
	}
	ring := Degrees(gen.Ring(10), nil)
	if math.Abs(ring.GiniIndex) > 1e-9 {
		t.Fatalf("ring gini = %v, want 0", ring.GiniIndex)
	}
}

func TestComponentSizes(t *testing.T) {
	sizes, max := ComponentSizes([]int64{0, 0, 0, 3, 3, 5})
	if sizes[0] != 3 || sizes[3] != 2 || sizes[5] != 1 || max != 3 {
		t.Fatalf("sizes = %v max = %d", sizes, max)
	}
}

func TestConnectedComponentsSVMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := randomGraph(seed, 60, 90)
		got := ConnectedComponentsSV(g, nil)
		want := graph.ReferenceComponents(g)
		for v := range want {
			if got.Labels[v] != want[v] {
				t.Fatalf("seed %d: labels[%d] = %d, want %d", seed, v, got.Labels[v], want[v])
			}
		}
	}
}

func TestConnectedComponentsSVOnRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sv := ConnectedComponentsSV(g, nil)
	relax := ConnectedComponents(g, nil)
	for v := range relax.Labels {
		if sv.Labels[v] != relax.Labels[v] {
			t.Fatalf("labels[%d]: sv %d vs relax %d", v, sv.Labels[v], relax.Labels[v])
		}
	}
	if sv.Hooks == 0 || sv.Jumps == 0 {
		t.Fatalf("sv did no work: hooks=%d jumps=%d", sv.Hooks, sv.Jumps)
	}
	// Pointer jumping converges in O(log n) rounds.
	if sv.Iterations > 15 {
		t.Fatalf("sv iterations = %d", sv.Iterations)
	}
}

func TestConnectedComponentsSVProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%40) + 1
		g := randomGraph(seed, n, int(mRaw%150))
		sv := ConnectedComponentsSV(g, nil)
		want := graph.ReferenceComponents(g)
		for v := range want {
			if sv.Labels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxDiameter(t *testing.T) {
	// Exact on paths and trees.
	if d := ApproxDiameter(gen.Path(10), 4, 4, nil); d != 9 {
		t.Fatalf("path diameter = %d, want 9", d)
	}
	if d := ApproxDiameter(gen.BinaryTree(15), 0, 4, nil); d != 6 {
		t.Fatalf("tree diameter = %d, want 6 (leaf to leaf)", d)
	}
	// Ring of 12: true diameter 6; double sweep finds it.
	if d := ApproxDiameter(gen.Ring(12), 0, 4, nil); d != 6 {
		t.Fatalf("ring diameter = %d, want 6", d)
	}
	// Star: diameter 2.
	if d := ApproxDiameter(gen.Star(9), 3, 4, nil); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
	// Degenerate inputs.
	if d := ApproxDiameter(gen.Ring(4), -1, 4, nil); d != -1 {
		t.Fatalf("invalid start = %d", d)
	}
}

func TestApproxDiameterLowerBoundProperty(t *testing.T) {
	// The estimate never exceeds the true eccentricity maximum and is
	// always >= the eccentricity of the start vertex.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%30) + 2
		g := randomGraph(seed, n, int(mRaw%100)+int(n))
		est := ApproxDiameter(g, 0, 4, nil)
		// True diameter over the start's component via all-pairs BFS.
		var trueDiam int64 = -1
		comp := graph.ReferenceComponents(g)
		for v := int64(0); v < n; v++ {
			if comp[v] != comp[0] {
				continue
			}
			for _, d := range graph.ReferenceBFS(g, v) {
				if d > trueDiam {
					trueDiam = d
				}
			}
		}
		return est <= trueDiam && est >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrianglesDetailRecording(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	rec.DetailTasks = true
	res := Triangles(g, rec)
	phases := rec.PhasesNamed("tri/count")
	if len(phases) != 1 {
		t.Fatalf("phases = %d", len(phases))
	}
	p := phases[0]
	if int64(len(p.Detail)) != p.Tasks {
		t.Fatalf("detail tasks %d != recorded tasks %d", len(p.Detail), p.Tasks)
	}
	// Per-task detail must sum to the aggregate issue count.
	var issue int64
	for _, tc := range p.Detail {
		issue += int64(tc.Issue)
	}
	if issue != p.Issue {
		t.Fatalf("detail issue %d != aggregate %d", issue, p.Issue)
	}
	// Skew: the costliest pair dwarfs the median on a scale-free graph.
	maxTask := uint32(0)
	for _, tc := range p.Detail {
		if tc.Issue > maxTask {
			maxTask = tc.Issue
		}
	}
	if int64(maxTask)*int64(len(p.Detail)) < 2*p.Issue {
		t.Fatalf("no task skew: max %d, mean %d", maxTask, p.Issue/int64(len(p.Detail)))
	}
	_ = res
}

func TestTrianglesDetailFeedsDES(t *testing.T) {
	// The DES consumes the recorded per-task detail; compare against the
	// same phase without detail (synthetic uniform tasks) — both must be
	// finite and within a band of each other.
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	detRec := trace.NewRecorder()
	detRec.DetailTasks = true
	Triangles(g, detRec)
	plainRec := trace.NewRecorder()
	Triangles(g, plainRec)

	des := machine.NewDES(machine.DefaultConfig())
	tDetail := machine.Seconds(des, detRec.Phases(), 16)
	tPlain := machine.Seconds(des, plainRec.Phases(), 16)
	if tDetail <= 0 || tPlain <= 0 {
		t.Fatalf("times: %v, %v", tDetail, tPlain)
	}
	if r := tDetail / tPlain; r < 0.25 || r > 4 {
		t.Fatalf("detail (%v) vs synthetic (%v) diverge: %vx", tDetail, tPlain, r)
	}
}

func TestAssortativity(t *testing.T) {
	// A star is maximally disassortative: hubs connect only to leaves.
	if a := Assortativity(gen.Star(20), nil); a > -0.999 {
		t.Fatalf("star assortativity = %v, want -1", a)
	}
	// A ring is degree-regular: zero variance, defined as 0.
	if a := Assortativity(gen.Ring(20), nil); a != 0 {
		t.Fatalf("ring assortativity = %v, want 0", a)
	}
	// Two disjoint cliques of different sizes: within-clique degrees are
	// equal, so edges connect equal degrees -> perfectly assortative.
	var edges []graph.Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	for i := int64(4); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g := graph.MustBuild(10, edges, graph.BuildOptions{SortAdjacency: true})
	if a := Assortativity(g, nil); a < 0.999 {
		t.Fatalf("disjoint cliques assortativity = %v, want 1", a)
	}
	// RMAT is disassortative.
	rm, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a := Assortativity(rm, nil); a >= 0 {
		t.Fatalf("rmat assortativity = %v, want negative", a)
	}
	// Tiny graphs are defined as 0.
	if a := Assortativity(graph.MustBuild(2, nil, graph.BuildOptions{}), nil); a != 0 {
		t.Fatalf("empty = %v", a)
	}
}
