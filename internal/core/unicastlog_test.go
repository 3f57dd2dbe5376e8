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
	return graph.MustBuild(n, edges, graph.BuildOptions{})
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
	// Recaptured when every run began recording its push/pull decisions
	// (all push here: every superstep unicasts); with
	// Result.DirectionPerStep left out the rows hash as before.
	golden := map[string]uint64{
		"0/none/dense":        0xc6c8e6465440e44e,
		"0/none/sparse":       0xcd2f99d817dfaa06,
		"0/sum/dense":         0xa15470e8cda85994,
		"0/sum/sparse":        0xf15af8fe5c4ddede,
		"0/closure/dense":     0x123121315ea3401a,
		"0/closure/sparse":    0xa55b6b7617d54216,
		"1/none/dense":        0x9fc6a2a9068dcb6c,
		"1/none/sparse":       0x28992f3a06469565,
		"1/sum/dense":         0xd0c046ac69589ced,
		"1/sum/sparse":        0x294f10cdf60d2cb4,
		"1/closure/dense":     0xb6d9188b65220373,
		"1/closure/sparse":    0xed8dc444a3780331,
		"B-1/none/dense":      0xcf237be743c845eb,
		"B-1/none/sparse":     0x4f1f87b48460a717,
		"B-1/sum/dense":       0x672d97914622d391,
		"B-1/sum/sparse":      0x57e805d00d43c82d,
		"B-1/closure/dense":   0x56118d9564aa2d92,
		"B-1/closure/sparse":  0xb5bb2f951e016dd6,
		"B/none/dense":        0x9ffb9eba3e97dc6b,
		"B/none/sparse":       0x8f37743f33dc131a,
		"B/sum/dense":         0x1e2d447cbe324dd1,
		"B/sum/sparse":        0xd95f0a53005a1133,
		"B/closure/dense":     0x920908f1d9b1a37,
		"B/closure/sparse":    0xc8b80dd58ef429e7,
		"B+1/none/dense":      0x43194ac04585553b,
		"B+1/none/sparse":     0xf420fc8a62d3d701,
		"B+1/sum/dense":       0x3febe3335811b7a6,
		"B+1/sum/sparse":      0xdb57c5f3a1de0bcf,
		"B+1/closure/dense":   0x597ead7db05491e3,
		"B+1/closure/sparse":  0x907a7e92c08a8244,
		"3B+7/none/dense":     0x40465087526827cd,
		"3B+7/none/sparse":    0x8f38cc79590878ee,
		"3B+7/sum/dense":      0x2cd816edc262252,
		"3B+7/sum/sparse":     0xc2a3cc4596e46838,
		"3B+7/closure/dense":  0xc96d2583f33f0bba,
		"3B+7/closure/sparse": 0x91a2dc82c5c78b6b,
		"gap/none/dense":      0x86d3c878bf9f192e,
		"gap/none/sparse":     0x4e529ef41a952f8a,
		"gap/sum/dense":       0x6088633008e5e616,
		"gap/sum/sparse":      0x9049443d316bded0,
		"gap/closure/dense":   0x8a8073e33706408,
		"gap/closure/sparse":  0x9d7afb1f10736bf0,
		"all/none/dense":      0xa89e986acbb24513,
		"all/none/sparse":     0x88ab2c8a0d3e9492,
		"all/sum/dense":       0x3bf44c18b1bbf0ab,
		"all/sum/sparse":      0xbe18ecb4f4df4088,
		"all/closure/dense":   0x2def9ebcc2f3d7d9,
		"all/closure/sparse":  0x9b0a41747f396694,
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
