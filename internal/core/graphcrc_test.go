package core

import (
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// TestGraphCRCGolden pins graphCRC, the graph half of a checkpoint's
// fingerprint: a checkpoint resumes only on a graph that hashes to the value
// it carries, so the CRC of a given graph may never change. The values were
// captured on the commit before crcInt64s converted in blocks; every array
// is longer than one block and not a multiple of it.
func TestGraphCRCGolden(t *testing.T) {
	edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	flat := graph.MustBuild(n, edges, graph.BuildOptions{})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint32
	}{
		{"flat", flat, 0xdc313f85},
		{"compressed", MustCompress(flat), 0xbda6819e},
		{"weighted", graph.MustBuild(n, edges, graph.BuildOptions{Weights: gen.UniformWeights(len(edges), 1000, 7)}), 0x23ce9467},
		{"empty", graph.MustBuild(0, nil, graph.BuildOptions{}), 0xc925cd24},
	} {
		if got := graphCRC(tc.g); got != tc.want {
			t.Errorf("%s: graphCRC = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
