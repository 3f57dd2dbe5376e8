package bspalg

import (
	"testing"
	"testing/quick"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/trace"
)

func TestBSPKCoreMatchesGraphCT(t *testing.T) {
	cases := []*graph.Graph{
		gen.Ring(20),
		gen.Star(15),
		gen.Complete(8),
		gen.CliqueChain(3, 5),
		gen.BinaryTree(31),
		randomGraph(3, 50, 140),
		randomGraph(9, 80, 300),
	}
	for i, g := range cases {
		bsp, err := Lookup("kcore").BSP(g, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := graphct.KCore(g, nil)
		for v := range ct.Core {
			if bsp.Answer[v] != ct.Core[v] {
				t.Fatalf("case %d: core[%d] = %d (bsp) vs %d (graphct)",
					i, v, bsp.Answer[v], ct.Core[v])
			}
		}
		if maxOf(bsp.Answer) != ct.MaxCore {
			t.Fatalf("case %d: degeneracy %d vs %d", i, maxOf(bsp.Answer), ct.MaxCore)
		}
	}
}

func TestBSPKCoreProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int64(nRaw%30) + 2
		g := randomGraph(seed, n, int(mRaw%120))
		bsp, err := Lookup("kcore").BSP(g, Params{}, nil)
		if err != nil {
			return false
		}
		ct := graphct.KCore(g, nil)
		for v := range ct.Core {
			if bsp.Answer[v] != ct.Core[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPKCoreOnRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	bsp, err := Lookup("kcore").BSP(g, Params{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.KCore(g, nil)
	for v := range ct.Core {
		if bsp.Answer[v] != ct.Core[v] {
			t.Fatalf("core[%d] mismatch", v)
		}
	}
	if len(rec.PhasesNamed("bsp/superstep")) != bsp.Steps {
		t.Fatal("phase count mismatch")
	}
	// Estimates only decrease, so convergence is fast on small-world
	// graphs.
	if bsp.Steps > 40 {
		t.Fatalf("supersteps = %d, expected quick convergence", bsp.Steps)
	}
}

func TestHIndex(t *testing.T) {
	cases := []struct {
		values []int32
		maxK   int32
		want   int32
	}{
		{nil, 0, 0},
		{nil, 5, 0},
		{[]int32{3, 3, 3}, 3, 3},
		{[]int32{1, 1, 1, 1}, 4, 1},
		{[]int32{5, 4, 3, 2, 1}, 5, 3},
		{[]int32{9, 9}, 2, 2},
		{[]int32{9, 9}, 5, 2}, // only two values >= anything
		{[]int32{0, 0, 0}, 3, 0},
	}
	for _, c := range cases {
		if got := hIndex(c.values, c.maxK); got != c.want {
			t.Fatalf("hIndex(%v, %d) = %d, want %d", c.values, c.maxK, got, c.want)
		}
	}
}

func TestBSPLabelPropagationPlanted(t *testing.T) {
	// Four dense communities, sparse noise between them: label propagation
	// must recover a grouping where intra-community pairs share labels.
	g, err := gen.PlantedPartition(4, 16, 0.7, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LabelPropagation(g, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Communities should collapse to roughly the planted count.
	if res.Communities > 10 {
		t.Fatalf("found %d communities, planted 4", res.Communities)
	}
	// Modularity of the found labeling should be clearly positive.
	if q := graphct.Modularity(g, res.Labels); q < 0.3 {
		t.Fatalf("modularity = %v, want planted structure recovered", q)
	}
	// Majority of intra-block pairs share a label.
	agree, total := 0, 0
	for u := int64(0); u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v++ {
			if u/16 == v/16 {
				total++
				if res.Labels[u] == res.Labels[v] {
					agree++
				}
			}
		}
	}
	if float64(agree) < 0.8*float64(total) {
		t.Fatalf("only %d/%d intra-community pairs agree", agree, total)
	}
}

func TestGraphCTLabelPropagationPlanted(t *testing.T) {
	g, err := gen.PlantedPartition(4, 16, 0.7, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := graphct.LabelPropagation(g, graphct.CommunityOptions{}, nil)
	if !res.Converged {
		t.Fatal("shared-memory LPA should converge on a planted graph")
	}
	if res.Communities > 10 {
		t.Fatalf("found %d communities", res.Communities)
	}
	if q := graphct.Modularity(g, res.Labels); q < 0.3 {
		t.Fatalf("modularity = %v", q)
	}
}

func TestLabelPropagationStalenessCostsIterations(t *testing.T) {
	// The paper's CC analysis generalizes: the BSP variant works on stale
	// labels and should need at least as many iterations as the in-place
	// shared-memory sweep.
	g, err := gen.PlantedPartition(3, 20, 0.5, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := LabelPropagation(g, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.LabelPropagation(g, graphct.CommunityOptions{}, nil)
	if bsp.Supersteps < ct.Iterations {
		t.Fatalf("bsp %d supersteps < shared-memory %d iterations",
			bsp.Supersteps, ct.Iterations)
	}
}

func TestModularity(t *testing.T) {
	// Two disconnected triangles with per-component labels: strong
	// community structure.
	g := gen.CliqueChain(1, 3)
	edges := g.EdgeList()
	for i := range edges {
		edges[i] = graph.Edge{U: edges[i].U + 3, V: edges[i].V + 3}
	}
	both := append(gen.CliqueChain(1, 3).EdgeList(), edges...)
	g2 := graph.MustBuild(6, both, graph.BuildOptions{})
	labels := []int64{0, 0, 0, 1, 1, 1}
	q := graphct.Modularity(g2, labels)
	if q < 0.45 || q > 0.55 { // exactly 0.5 for two equal disconnected cliques
		t.Fatalf("modularity = %v, want 0.5", q)
	}
	// All-in-one labeling has modularity 0.
	all := []int64{0, 0, 0, 0, 0, 0}
	if q := graphct.Modularity(g2, all); q > 1e-9 {
		t.Fatalf("single-community modularity = %v, want ~0", q)
	}
	// Empty graph.
	if q := graphct.Modularity(graph.MustBuild(2, nil, graph.BuildOptions{}), []int64{0, 1}); q != 0 {
		t.Fatalf("empty modularity = %v", q)
	}
}
