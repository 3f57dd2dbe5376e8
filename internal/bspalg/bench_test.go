package bspalg

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

func benchRMAT(b *testing.B) *graph.Graph {
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

func BenchmarkBSPConnectedComponents(b *testing.B) {
	g := benchRMAT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConnectedComponents(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSPBFS(b *testing.B) {
	g := benchRMAT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFS(g, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSPTrianglesEngine(b *testing.B) {
	g := benchRMAT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangles(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSPTrianglesStreaming(b *testing.B) {
	g := benchRMAT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamingTriangles(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSPKCore(b *testing.B) {
	g := benchRMAT(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lookup("kcore").BSP(g, Params{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
