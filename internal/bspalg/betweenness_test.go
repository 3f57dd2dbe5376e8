package bspalg

import (
	"math"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
)

func scoresClose(t *testing.T, bsp, ct []float64, tol float64) {
	t.Helper()
	for v := range ct {
		diff := math.Abs(bsp[v] - ct[v])
		if diff > tol && diff > tol*math.Abs(ct[v]) {
			t.Fatalf("score[%d]: bsp %v vs shared-memory %v", v, bsp[v], ct[v])
		}
	}
}

func TestBSPBetweennessPath(t *testing.T) {
	g := gen.Path(5)
	bsp, err := betweenness(g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.Betweenness(g, graphct.BetweennessOptions{}, nil)
	scoresClose(t, bsp.Score, ct.Score, 1e-6)
	if math.Abs(bsp.Score[2]-8) > 1e-6 {
		t.Fatalf("center score = %v, want 8", bsp.Score[2])
	}
}

func TestBSPBetweennessStar(t *testing.T) {
	g := gen.Star(10)
	bsp, err := betweenness(g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bsp.Score[0]-72) > 1e-6 {
		t.Fatalf("hub score = %v, want 72", bsp.Score[0])
	}
	for v := 1; v < 10; v++ {
		if math.Abs(bsp.Score[v]) > 1e-9 {
			t.Fatalf("leaf score = %v", bsp.Score[v])
		}
	}
}

func TestBSPBetweennessMatchesSharedMemory(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(seed, 40, 120)
		bsp, err := betweenness(g, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := graphct.Betweenness(g, graphct.BetweennessOptions{}, nil)
		// Fixed-point messaging bounds accuracy; hold to 0.5% relative or
		// 0.01 absolute per vertex.
		scoresClose(t, bsp.Score, ct.Score, 5e-3)
	}
}

func TestBSPBetweennessOnCliqueChain(t *testing.T) {
	// Bridge endpoints dominate betweenness in a chain of cliques.
	g := gen.CliqueChain(3, 4)
	bsp, err := betweenness(g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.Betweenness(g, graphct.BetweennessOptions{}, nil)
	scoresClose(t, bsp.Score, ct.Score, 5e-3)
	// Vertices 3 and 4 (first bridge) outrank interior clique vertices.
	if !(bsp.Score[3] > bsp.Score[1] && bsp.Score[4] > bsp.Score[1]) {
		t.Fatalf("bridge scores %v, %v not above interior %v",
			bsp.Score[3], bsp.Score[4], bsp.Score[1])
	}
}

func TestBSPBetweennessSampled(t *testing.T) {
	g := randomGraph(9, 60, 180)
	a, err := betweenness(g, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := betweenness(g, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sources) != 8 {
		t.Fatalf("sources = %d", len(a.Sources))
	}
	for v := range a.Score {
		if a.Score[v] != b.Score[v] {
			t.Fatal("sampled run not deterministic")
		}
	}
}

func TestBSPBetweennessEmptyAndDisconnected(t *testing.T) {
	empty := graph.MustBuild(0, nil, graph.BuildOptions{})
	res, err := betweenness(empty, 0, 0, nil)
	if err != nil || len(res.Score) != 0 {
		t.Fatalf("empty: %v, %v", res, err)
	}
	// Disconnected: scores restricted to each component.
	g := graph.MustBuild(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}},
		graph.BuildOptions{SortAdjacency: true})
	bsp, err := betweenness(g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := graphct.Betweenness(g, graphct.BetweennessOptions{}, nil)
	scoresClose(t, bsp.Score, ct.Score, 1e-6)
	if bsp.Score[1] != 2 || bsp.Score[4] != 2 {
		t.Fatalf("middle scores = %v", bsp.Score)
	}
}
