package graphct

import (
	"sync"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

var (
	benchOnce sync.Once
	benchG    *graph.Graph
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchG, err = gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 1})
		if err != nil {
			panic(err)
		}
	})
	return benchG
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(g, nil)
	}
}

func BenchmarkConnectedComponentsSV(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponentsSV(g, nil)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0, nil)
	}
}

func BenchmarkTriangles(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Triangles(g, nil)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, PageRankOptions{MaxIterations: 10, Tolerance: 1e-12}, nil)
	}
}

func BenchmarkKCore(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KCore(g, nil)
	}
}
