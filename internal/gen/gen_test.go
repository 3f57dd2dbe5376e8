package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

func TestRMATDeterministic(t *testing.T) {
	cfg := RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 42}
	e1, n1, err := RMATEdges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, n2, err := RMATEdges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != 1024 {
		t.Fatalf("n = %d, %d", n1, n2)
	}
	if len(e1) != len(e2) || len(e1) != 8*1024 {
		t.Fatalf("m = %d, %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestRMATDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := RMATConfig{Scale: 9, EdgeFactor: 4, Seed: 7}
	defer par.SetWorkers(par.SetWorkers(1))
	e1, _, _ := RMATEdges(cfg)
	par.SetWorkers(8)
	e2, _, _ := RMATEdges(cfg)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d depends on worker count", i)
		}
	}
}

func TestRMATSeedChangesOutput(t *testing.T) {
	e1, _, _ := RMATEdges(RMATConfig{Scale: 8, EdgeFactor: 4, Seed: 1})
	e2, _, _ := RMATEdges(RMATConfig{Scale: 8, EdgeFactor: 4, Seed: 2})
	same := 0
	for i := range e1 {
		if e1[i] == e2[i] {
			same++
		}
	}
	if same > len(e1)/10 {
		t.Fatalf("%d/%d edges identical across seeds", same, len(e1))
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// RMAT with Graph500 parameters must produce a highly skewed degree
	// distribution: max degree far above mean, many low-degree vertices.
	g, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	mean := float64(g.NumEdges()) / float64(n)
	maxDeg := float64(g.MaxDegree())
	if maxDeg < 8*mean {
		t.Fatalf("max degree %v not skewed vs mean %v", maxDeg, mean)
	}
	lowDeg := 0
	for v := int64(0); v < n; v++ {
		if g.Degree(v) <= int64(mean)/2 {
			lowDeg++
		}
	}
	if float64(lowDeg) < 0.3*float64(n) {
		t.Fatalf("only %d/%d vertices below half mean degree", lowDeg, n)
	}
}

func TestRMATValidGraph(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Directed() {
		t.Fatal("RMAT graph should be undirected")
	}
	if !g.SortedAdjacency() {
		t.Fatal("adjacency should be sorted")
	}
	// Self-loops must be gone.
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.HasEdge(v, v) {
			t.Fatalf("self loop at %d", v)
		}
	}
}

func TestRMATBadParams(t *testing.T) {
	if _, _, err := RMATEdges(RMATConfig{Scale: 0}); err == nil {
		t.Fatal("scale 0 should error")
	}
	if _, _, err := RMATEdges(RMATConfig{Scale: 50}); err == nil {
		t.Fatal("scale 50 should error")
	}
	if _, _, err := RMATEdges(RMATConfig{Scale: 4, A: 0.9, B: 0.1, C: 0.1}); err == nil {
		t.Fatal("a+b+c >= 1 should error")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(1000, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// ER degrees concentrate near the mean: max degree should be modest.
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) > 6*mean+10 {
		t.Fatalf("ER max degree %d too skewed for mean %v", g.MaxDegree(), mean)
	}
	if _, err := ErdosRenyi(0, 5, 1); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := ErdosRenyi(5, -1, 1); err == nil {
		t.Fatal("m<0 should error")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, every vertex has degree exactly k.
	g, err := WattsStrogatz(100, 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("deg(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestWattsStrogatzRewired(t *testing.T) {
	g, err := WattsStrogatz(500, 6, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rewiring must change some degrees away from k.
	changed := false
	for v := int64(0); v < g.NumVertices() && !changed; v++ {
		changed = g.Degree(v) != 6
	}
	if !changed {
		t.Fatal("beta=0.3 produced an unmodified lattice")
	}
	// Mean degree stays ~k (rewiring moves endpoints; duplicates collapse
	// loses only a few).
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if math.Abs(mean-6) > 0.5 {
		t.Fatalf("mean degree %v, want ~6", mean)
	}
}

func TestWattsStrogatzBadParams(t *testing.T) {
	cases := []struct {
		n    int64
		k    int
		beta float64
	}{{2, 2, 0}, {10, 3, 0}, {10, 12, 0}, {10, 2, -0.1}, {10, 2, 1.5}}
	for _, c := range cases {
		if _, err := WattsStrogatz(c.n, c.k, c.beta, 1); err == nil {
			t.Fatalf("WS(%d,%d,%v) should error", c.n, c.k, c.beta)
		}
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.UndirectedEdges() != 10 {
		t.Fatalf("ring edges = %d", g.UndirectedEdges())
	}
	for v := int64(0); v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("deg = %d", g.Degree(v))
		}
	}
	dist := graph.ReferenceBFS(g, 0)
	if dist[5] != 5 {
		t.Fatalf("d(5) = %d, want 5", dist[5])
	}
}

func TestStar(t *testing.T) {
	g := Star(11)
	if g.Degree(0) != 10 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	for v := int64(1); v < 11; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf degree = %d", g.Degree(v))
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.UndirectedEdges() != 15 {
		t.Fatalf("K6 edges = %d", g.UndirectedEdges())
	}
	if graph.ReferenceTriangles(g) != 20 { // C(6,3)
		t.Fatalf("K6 triangles = %d", graph.ReferenceTriangles(g))
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// 3x4 grid: 3*3 horizontal + 2*4 vertical = 17 edges.
	if g.UndirectedEdges() != 17 {
		t.Fatalf("edges = %d, want 17", g.UndirectedEdges())
	}
	dist := graph.ReferenceBFS(g, 0)
	if dist[11] != 5 { // Manhattan distance corner to corner
		t.Fatalf("d(corner) = %d, want 5", dist[11])
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15) // complete 4-level tree
	if g.UndirectedEdges() != 14 {
		t.Fatalf("tree edges = %d", g.UndirectedEdges())
	}
	dist := graph.ReferenceBFS(g, 0)
	maxd := int64(0)
	for _, d := range dist {
		if d > maxd {
			maxd = d
		}
	}
	if maxd != 3 {
		t.Fatalf("tree depth = %d, want 3", maxd)
	}
	if graph.ReferenceTriangles(g) != 0 {
		t.Fatal("tree has no triangles")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Each K4 has 4 triangles; bridges add none.
	if got := graph.ReferenceTriangles(g); got != 12 {
		t.Fatalf("triangles = %d, want 12", got)
	}
	labels := graph.ReferenceComponents(g)
	if graph.CountComponents(labels) != 1 {
		t.Fatal("chain should be connected")
	}
}

func TestPath(t *testing.T) {
	g := Path(7)
	if g.UndirectedEdges() != 6 {
		t.Fatalf("edges = %d", g.UndirectedEdges())
	}
	dist := graph.ReferenceBFS(g, 0)
	if dist[6] != 6 {
		t.Fatalf("d(6) = %d", dist[6])
	}
}

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(1000, 10, 3)
	seen := map[int64]bool{}
	for _, x := range w {
		if x < 1 || x > 10 {
			t.Fatalf("weight %d out of [1,10]", x)
		}
		seen[x] = true
	}
	if len(seen) < 8 {
		t.Fatalf("weights cover only %d values", len(seen))
	}
	w2 := UniformWeights(1000, 10, 3)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("weights not deterministic")
		}
	}
}

func TestRMATSmallDiameter(t *testing.T) {
	// Small-world property: BFS from the giant component's busiest vertex
	// should reach everything reachable within a handful of hops.
	g, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var src, best int64
	for v := int64(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > best {
			best, src = d, v
		}
	}
	dist := graph.ReferenceBFS(g, src)
	var maxd int64
	reached := 0
	for _, d := range dist {
		if d >= 0 {
			reached++
			if d > maxd {
				maxd = d
			}
		}
	}
	if maxd > 12 {
		t.Fatalf("RMAT eccentricity %d, expected small-world (<12)", maxd)
	}
	if reached < int(g.NumVertices())/3 {
		t.Fatalf("giant component only %d/%d", reached, g.NumVertices())
	}
}

func TestRMATQuadrantBias(t *testing.T) {
	// With a=0.57 the low half of the ID space must attract more edge
	// endpoints than the high half.
	edges, n, err := RMATEdges(RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	half := n / 2
	low := 0
	for _, e := range edges {
		if e.U < half {
			low++
		}
		if e.V < half {
			low++
		}
	}
	frac := float64(low) / float64(2*len(edges))
	if frac < 0.6 {
		t.Fatalf("low-half endpoint fraction %v, want > 0.6 for a=0.57", frac)
	}
}

func TestDegreeDistributionHeavyTail(t *testing.T) {
	// Compare the RMAT tail against ER with the same size: RMAT's 99.9th
	// percentile degree must exceed ER's by a wide margin.
	rm, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(rm.NumVertices(), rm.NumEdges()/2, 21)
	if err != nil {
		t.Fatal(err)
	}
	p999 := func(g *graph.Graph) int64 {
		degs := make([]int64, g.NumVertices())
		for v := range degs {
			degs[v] = g.Degree(int64(v))
		}
		sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
		return degs[len(degs)*999/1000]
	}
	if p999(rm) < 2*p999(er) {
		t.Fatalf("RMAT p99.9 %d vs ER %d: no heavy tail", p999(rm), p999(er))
	}
}

func TestPlantedPartition(t *testing.T) {
	g, err := PlantedPartition(3, 10, 0.8, 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 30 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-community edges must dominate.
	var in, out int64
	for v := int64(0); v < 30; v++ {
		for _, w := range g.Neighbors(v) {
			if v/10 == w/10 {
				in++
			} else {
				out++
			}
		}
	}
	if in < 5*out {
		t.Fatalf("intra %d vs inter %d: planted structure too weak", in, out)
	}
	// Determinism.
	g2, err := PlantedPartition(3, 10, 0.8, 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("not deterministic")
	}
}

func TestPlantedPartitionErrors(t *testing.T) {
	if _, err := PlantedPartition(0, 5, 0.5, 0.1, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := PlantedPartition(2, 0, 0.5, 0.1, 1); err == nil {
		t.Fatal("s=0 should error")
	}
	if _, err := PlantedPartition(2, 5, 1.5, 0.1, 1); err == nil {
		t.Fatal("pIn>1 should error")
	}
	if _, err := PlantedPartition(2, 5, 0.5, -0.1, 1); err == nil {
		t.Fatal("pOut<0 should error")
	}
}

func BenchmarkRMATGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := RMATEdges(RMATConfig{Scale: 14, EdgeFactor: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMATBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(2000, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Connected by construction.
	labels := graph.ReferenceComponents(g)
	if graph.CountComponents(labels) != 1 {
		t.Fatal("BA graph should be connected")
	}
	// Scale-free tail: max degree far above the mean.
	mean := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 5*mean {
		t.Fatalf("max degree %d vs mean %.1f: no hub", g.MaxDegree(), mean)
	}
	// Every latecomer has degree >= m.
	for v := int64(5); v < g.NumVertices(); v++ {
		if g.Degree(v) < 4 {
			t.Fatalf("vertex %d degree %d < m", v, g.Degree(v))
		}
	}
	// Deterministic.
	g2, err := BarabasiAlbert(2000, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("not deterministic")
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	if _, err := BarabasiAlbert(10, 0, 1); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := BarabasiAlbert(3, 5, 1); err == nil {
		t.Fatal("m>=n should error")
	}
}

func TestBarabasiAlbertKernelsAgree(t *testing.T) {
	// The model comparison holds on a non-RMAT scale-free topology too.
	g, err := BarabasiAlbert(1500, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.ReferenceComponents(g)
	if graph.CountComponents(ref) != 1 {
		t.Fatal("expected connected")
	}
	if graph.ReferenceTriangles(g) <= 0 {
		t.Fatal("BA graphs have triangles")
	}
}

// TestRMATGoldenStream pins the raw RMAT edge stream: FNV-64a over every
// edge's (U, V) as little-endian int64 pairs, computed on the commit before
// the generator's hot loop was restructured. A change here changes every
// RMAT graph the experiments and the benchmark use.
func TestRMATGoldenStream(t *testing.T) {
	cases := []struct {
		cfg  RMATConfig
		want uint64
	}{
		{RMATConfig{Scale: 10, Seed: 7}, 0x99dd0e0f5dea9235},
		{RMATConfig{Scale: 16, Seed: 7}, 0x176d57fd5f01f52e},
		// The noise-free branch and non-default parameters.
		{RMATConfig{Scale: 12, EdgeFactor: 8, Noise: -1, Seed: 7}, 0x4c85d0062e46513f},
		{RMATConfig{Scale: 12, EdgeFactor: 8, A: 0.45, B: 0.15, C: 0.15, Noise: 0.3, Seed: 7}, 0xbbaf8c9ccac0ac12},
	}
	for _, c := range cases {
		edges, _, err := RMATEdges(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [16]byte
		for _, e := range edges {
			binary.LittleEndian.PutUint64(buf[:8], uint64(e.U))
			binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%+v: stream hash %#016x, want %#016x", c.cfg, got, c.want)
		}
	}
}
