package core_test

// Unicast messages travel from Send to the inbox in pooled fixed-size blocks
// spliced by pointer (msgLog): nothing a run returns, records or checkpoints
// may depend on where a block ends, on which chunk a block came from, or on
// what an un-zeroed block held before. The hashes below were captured on the
// commit before the log existed, when every chunk appended to a private
// slice and the engine concatenated them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

// The rows below straddle a block of the probe's sends, which almost never
// repeat a destination: 4096 one-message runs.
const logBlock = 4096

// logProbeChunk is the sweep chunk size on logGraph (16384/256), asserted
// by TestUnicastLogGolden.
const logProbeChunk = 64

// logGraph is a 16384-vertex circulant (v ~ v±1..v±4): regular, so its
// degree-weighted sweep ranges are known 64-vertex chunks, and dense enough
// that a superstep with every vertex awake takes the parallel sweep.
func logGraph() *graph.Graph {
	const n = 1 << 14
	edges := make([]graph.Edge, 0, 4*n)
	for v := int64(0); v < n; v++ {
		for d := int64(1); d <= 4; d++ {
			edges = append(edges, graph.Edge{U: v, V: (v + d) % n})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{SortAdjacency: true})
}

// logProbe folds its inbox in order into its state — so any reordering of a
// destination's messages changes the result — and sends a controlled
// number of unicast messages per sweep chunk: in superstep 0 the first
// vertex of chunk c sends perChunk[c] messages, a third of them to vertex 0
// (a hub group big enough for the segmented fold), with one SendToNeighbors
// in the middle of the stream on even chunks; a sprinkling of other
// vertices interleave Send, SendToNeighbors, Send. Superstep 1 relays up to
// four messages per receiver and broadcasts from a few vertices.
type logProbe struct{ perChunk []int }

func (logProbe) InitialState(_ *graph.Graph, v int64) int64 { return v*0x9E3779B9 + 1 }

func (p logProbe) Compute(v *core.VertexContext) {
	h := v.State()
	for _, m := range v.Messages() {
		h = h*1099511628211 + m
	}
	v.SetState(h)
	id, n := v.ID(), v.NumVertices()
	switch v.Superstep() {
	case 0:
		c := int(id / logProbeChunk)
		switch {
		case id%logProbeChunk == 0 && c < len(p.perChunk):
			k := p.perChunk[c]
			for i := 0; i < k; i++ {
				if i == k/2 && c%2 == 0 {
					v.SendToNeighbors(h + int64(i))
				}
				dest := int64(0)
				if i%3 != 0 {
					dest = (id*2654435761 + int64(i)*40503) % n
				}
				v.Send(dest, h^int64(i))
			}
		case id%97 == 3:
			v.Send((id*31+7)%n, h)
			v.SendToNeighbors(h + 1)
			v.Send((id*17+5)%n, h+2)
		}
	case 1:
		for i := 0; i < min(len(v.Messages()), 4); i++ {
			v.Send((id*31+int64(i)*7+h&0xff)%n, h+int64(i))
		}
		if id%89 == 0 {
			v.SendToNeighbors(h)
		}
	}
	v.VoteToHalt()
}

func TestUnicastLogGolden(t *testing.T) {
	if core.UnitRunsPerBlock != logBlock {
		t.Fatalf("rows straddle a %d-message block, the engine's holds %d: re-derive the rows", logBlock, core.UnitRunsPerBlock)
	}
	g := logGraph()
	for c, lo := range core.SweepRanges(g) {
		if lo != c*logProbeChunk {
			t.Fatalf("sweep range %d starts at vertex %d, the probe assumes %d", c, lo, c*logProbeChunk)
		}
	}
	const B = logBlock
	rows := []struct {
		name     string
		perChunk []int
	}{
		{"0", []int{0}},
		{"1", []int{1}},
		{"B-1", []int{B - 1, 5}},
		{"B", []int{B, 5}},
		{"B+1", []int{B + 1, 5}},
		{"3B+7", []int{3*B + 7, 3*B + 7}},
		{"gap", []int{B, 0, B}},
		{"all", []int{0, 1, B - 1, B, B + 1, 3*B + 7, B, 0, B}},
	}
	combiners := []struct {
		name string
		fn   func(a, b int64) int64
	}{
		{"none", nil},
		{"sum", core.Sum},
		{"closure", func(a, b int64) int64 { return a ^ b }},
	}
	golden := map[string]uint64{
		"0/none/dense":        0x831e5201b1cc1309,
		"0/none/sparse":       0xb801b5b26ed02b1,
		"0/sum/dense":         0x8877d2606a5dd857,
		"0/sum/sparse":        0xcee9e0f325377891,
		"0/closure/dense":     0xb9d046ebc36a7ee5,
		"0/closure/sparse":    0x3672cc156d8b79f9,
		"1/none/dense":        0x72ecfe02d7cdf0db,
		"1/none/sparse":       0x9e8e73c7a11e1402,
		"1/sum/dense":         0x9736077ee4bda1a,
		"1/sum/sparse":        0x19e6674f728621a3,
		"1/closure/dense":     0x55a114a7053dfd34,
		"1/closure/sparse":    0x151085986434896e,
		"B-1/none/dense":      0xceea3f81c72b2e78,
		"B-1/none/sparse":     0xe131d6acc45d0c20,
		"B-1/sum/dense":       0xae9de8fd34d44a6e,
		"B-1/sum/sparse":      0x807caa6b3c78462e,
		"B-1/closure/dense":   0x55c0796456a06cf5,
		"B-1/closure/sparse":  0x8d8bcbb4c8b2a785,
		"B/none/dense":        0x1dcffeb3a2ef3070,
		"B/none/sparse":       0x4bb27e2f6609a741,
		"B/sum/dense":         0xd3a8eee4c00c9a1a,
		"B/sum/sparse":        0xd47a70099e88bde0,
		"B/closure/dense":     0x191c841483be34e0,
		"B/closure/sparse":    0x86c9206c0fd89864,
		"B+1/none/dense":      0x7cc77021cf0c87e0,
		"B+1/none/sparse":     0x4beff255fd55122a,
		"B+1/sum/dense":       0x62e9fc104b59067d,
		"B+1/sum/sparse":      0x4981c0d3e208d47c,
		"B+1/closure/dense":   0xc22ccf106a4fdbc4,
		"B+1/closure/sparse":  0x457c871b8288aec7,
		"3B+7/none/dense":     0x8961ebedfe184276,
		"3B+7/none/sparse":    0x366407f919ace235,
		"3B+7/sum/dense":      0x79c907dbb60f4ebd,
		"3B+7/sum/sparse":     0xb7e999f3784bbfff,
		"3B+7/closure/dense":  0x97d6d6d08ef0c0bd,
		"3B+7/closure/sparse": 0x98bcec7ea7a95e38,
		"gap/none/dense":      0x6a11d15e1bf6b225,
		"gap/none/sparse":     0xefb8a6e640fbcd81,
		"gap/sum/dense":       0x69a8f27a16242491,
		"gap/sum/sparse":      0xebdbb5fab102ccb,
		"gap/closure/dense":   0x3166efe8d447557b,
		"gap/closure/sparse":  0x6fabd451df64bacb,
		"all/none/dense":      0xedb7577435d77a00,
		"all/none/sparse":     0x5789186492e6e5e1,
		"all/sum/dense":       0x44034bb831c8180,
		"all/sum/sparse":      0x7aa5fd3ea7ad86fb,
		"all/closure/dense":   0x39cbc185e8bd3fee,
		"all/closure/sparse":  0xd52e9699daa8912f,
	}
	for _, r := range rows {
		for _, cb := range combiners {
			for _, sparse := range []bool{false, true} {
				row := fmt.Sprintf("%s/%s/%s", r.name, cb.name, map[bool]string{false: "dense", true: "sparse"}[sparse])
				t.Run(row, func(t *testing.T) {
					for _, expand := range []bool{false, true} {
						for _, w := range []int{1, 3, 8} {
							cfg := core.Config{Program: logProbe{perChunk: r.perChunk}, Combiner: cb.fn, SparseActivation: sparse}
							core.WithExpandBroadcasts(expand)(&cfg)
							res, ph, err := runRec(g, w, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got := hashRun(res, ph); got != golden[row] {
								t.Errorf("expand=%v w=%d: hash %#x, golden %#x", expand, w, got, golden[row])
							}
						}
					}
				})
			}
		}
	}
}

// TestUnicastLogTriangles: the one per-edge-unicast kernel, through the
// engine, streamed, and by the sequential reference, on a skewed graph
// under the default degree schedule and on a star (no triangles, one chunk
// holding every send).
func TestUnicastLogTriangles(t *testing.T) {
	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"rmat10": rmat, "star": gen.Star(20001)} {
		want := graph.ReferenceTriangles(g)
		stream, err := bspalg.StreamingTriangles(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stream.Count != want {
			t.Fatalf("%s: StreamingTriangles = %d, reference %d", name, stream.Count, want)
		}
		for _, w := range []int{1, 3, 8} {
			func() {
				defer par.SetWorkers(par.SetWorkers(w))
				tc, err := bspalg.Triangles(g, nil)
				if err != nil {
					t.Fatal(err)
				}
				if tc.Count != want || tc.TotalMessages != stream.TotalMessages || tc.CandidateMessages != stream.CandidateMessages {
					t.Errorf("%s w=%d: engine %d triangles, %d messages (%d candidates); streamed %d, %d (%d); reference %d",
						name, w, tc.Count, tc.TotalMessages, tc.CandidateMessages, stream.Count, stream.TotalMessages, stream.CandidateMessages, want)
				}
			}()
		}
	}
}

// TestUnicastLogConcurrentRuns: runs in one process share the block and
// flat-buffer pools; a block owned twice would corrupt somebody's count.
func TestUnicastLogConcurrentRuns(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
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

// boundaryStream is FNV-64a over the per-edge send stream a checkpoint holds
// at its boundary — the unicast log with each broadcast record expanded, in
// adjacency order, at its seq — as little-endian (dest, value) pairs. It
// reads the same whether the writer stored the broadcasts as records or as
// per-edge messages.
func boundaryStream(g *graph.Graph, s *ckpt.Snapshot) uint64 {
	h := fnv.New64a()
	var b [16]byte
	put := func(dest, val int64) {
		binary.LittleEndian.PutUint64(b[:8], uint64(dest))
		binary.LittleEndian.PutUint64(b[8:], uint64(val))
		h.Write(b[:])
	}
	var at int64
	for i, src := range s.BcastSrc {
		for ; at < s.BcastSeq[i]; at++ {
			put(s.MsgDest[at], s.MsgVal[at])
		}
		for _, w := range g.Neighbors(src) {
			put(w, s.BcastVal[i])
		}
	}
	for ; at < int64(len(s.MsgDest)); at++ {
		put(s.MsgDest[at], s.MsgVal[at])
	}
	return h.Sum64()
}

// TestUnicastLogRecovery kills the "all" row at boundary 0, whose in-flight
// traffic — unicast messages and broadcast records mixed — spans several
// blocks, resumes it, and separately panics once in superstep 1 and lets
// the supervisor retry it (recoverAcross). The checkpoint written at the
// kill must keep the broadcasts as records beside the unicast log, and
// spell the per-edge stream streamGolden was taken from when that boundary
// was stored as per-edge messages.
func TestUnicastLogRecovery(t *testing.T) {
	g := logGraph()
	const B = logBlock
	const streamGolden = uint64(0x9ed93fbf0ae60054)
	for _, sparse := range []bool{false, true} {
		for _, w := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("sparse=%v/w=%d", sparse, w), func(t *testing.T) {
				mk := func() core.Config {
					return core.Config{
						Program:          logProbe{perChunk: []int{0, 1, B - 1, B, B + 1, 3*B + 7, B, 0, B}},
						SparseActivation: sparse,
						MaxRetries:       1,
					}
				}
				base, basePh, err := runRec(g, w, mk())
				if err != nil {
					t.Fatal(err)
				}
				takeRetries(t, base)
				if base.MessagesPerStep[0] < 4*B {
					t.Fatalf("boundary 0 carries %d messages, want several blocks", base.MessagesPerStep[0])
				}
				recoverAcross(t, g, w, mk, base, basePh, 0)

				cfg := mk()
				plan := &faultinject.Plan{KillAt: map[int64]bool{0: true}}
				cfg.Checkpoint = &ckpt.Policy{Dir: t.TempDir(), Hooks: plan.Hooks()}
				_, _, err = runRec(g, w, cfg)
				var ie *core.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("kill@0: want InterruptedError, got %v", err)
				}
				snap, err := ckpt.Load(ie.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				if len(snap.BcastSrc) == 0 {
					t.Errorf("checkpoint holds %d per-edge messages and no broadcast records", len(snap.MsgDest))
				}
				if got := boundaryStream(g, snap); got != streamGolden {
					t.Errorf("boundary stream hash %#x (%d messages, %d records), golden %#x", got, len(snap.MsgDest), len(snap.BcastSrc), streamGolden)
				}
			})
		}
	}
}
