package core_test

// The inbox representation is a per-superstep host decision (CSR arrays or
// the stamped lookaside, by traffic — choosePath): nothing a run
// returns or records may depend on it. The hashes below were captured on
// the commit before the full-scan schedule could take the lookaside, when
// every one of these runs built a CSR at every boundary.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// hashRun is FNV-64a over every field of the Result and of the charged
// profile, as little-endian int64s.
func hashRun(res *core.Result, phases []*trace.Phase) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(xs ...int64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	put(int64(res.Supersteps))
	for _, s := range [][]int64{res.States, res.ActivePerStep, res.MessagesPerStep, res.DeliveredPerStep, res.RetriesPerStep} {
		put(int64(len(s)))
		put(s...)
	}
	for _, d := range res.DirectionPerStep {
		put(int64(d))
	}
	names := make([]string, 0, len(res.Aggregates))
	for name := range res.Aggregates {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(res.Aggregates[name])
	}
	for _, p := range phases {
		h.Write([]byte(p.Name))
		put(int64(p.Index), p.Tasks, p.Issue, p.Loads, p.Stores, p.MaxTask, p.Barriers)
		put(p.Hot[:]...)
	}
	return h.Sum64()
}

// lookasideBoundaries replays choosePath's decision from the logical traffic:
// boundary k builds the lookaside when superstep k's sends are far below n.
// Exact on graphs this small: parallel routing and a pull both need 2^14
// messages, far above the cutoff. ups and downs count the hand-overs CSR →
// lookaside and back.
func lookasideBoundaries(res *core.Result, n int64) (look []bool, ups, downs int64) {
	look = make([]bool, res.Supersteps-1)
	for k := range look {
		look[k] = res.MessagesPerStep[k]*core.LookasideCutoff < n
		switch {
		case !look[k]:
			if k > 0 && look[k-1] {
				downs++
			}
			continue
		case k == 0 || !look[k-1]:
			ups++
		}
	}
	return look, ups, downs
}

// quietSource is vertex 0's lowest-degree neighbor (0 when it has none): a
// BFS root in the same component as the hub whose first superstep sends
// next to nothing — a star's leaf, a low-degree vertex of the RMAT giant.
func quietSource(g *graph.Graph) int64 {
	var src int64
	for _, w := range g.DecodeNeighbors(0, nil) {
		if src == 0 || g.Degree(w) < g.Degree(src) {
			src = w
		}
	}
	return src
}

func TestDenseInboxGolden(t *testing.T) {
	rmat := detGraph(t)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path4096", gen.Path(4096)},
		{"grid64", gen.Grid(64, 64)},
		{"star40k", gen.Star(40001)},
		{"rmat12", rmat},
		{"rmat12c", core.MustCompress(rmat)},
		{"n=1", graph.MustBuild(1, nil, graph.BuildOptions{})},
		{"edgeless", graph.MustBuild(100, nil, graph.BuildOptions{})},
	}
	progs := []struct {
		name string
		mk   func(g *graph.Graph) core.Config
	}{
		{"probe", func(*graph.Graph) core.Config { return core.Config{Program: orderProbe{rounds: 4}} }},
		{"bfs", func(g *graph.Graph) core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: quietSource(g)}, MaxSupersteps: -1}
		}},
		{"cc/min", func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, MaxSupersteps: -1}
		}},
		{"pagerank/sum", func(*graph.Graph) core.Config {
			return core.Config{Program: bspalg.PageRankProgram{DampingMilli: 850, Rounds: 6}, Combiner: core.Sum}
		}},
		{"probe/closure", func(*graph.Graph) core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, Combiner: func(a, b int64) int64 { return max(a, b) }}
		}},
	}
	golden := map[string]uint64{
		"probe/path4096":         0x3c16154c17234207,
		"probe/grid64":           0xbb10898a8e331e41,
		"probe/star40k":          0xe0497ba19834c72a,
		"probe/rmat12":           0x879249c86caaa63c,
		"probe/rmat12c":          0x879249c86caaa63c,
		"probe/n=1":              0x8828ebce820868ee,
		"probe/edgeless":         0xb4a7d05a0b277f3e,
		"bfs/path4096":           0x3f18525048a5ccdd,
		"bfs/grid64":             0x5d33ab4c8a23a229,
		"bfs/star40k":            0x31a6784b75f0a238,
		"bfs/rmat12":             0x60fde5c4bc582102,
		"bfs/rmat12c":            0x60fde5c4bc582102,
		"bfs/n=1":                0x86e2d05dce3f1f29,
		"bfs/edgeless":           0x8ae35520f60cc2e,
		"cc/min/path4096":        0xe72cbb1c1fe7c6fe,
		"cc/min/grid64":          0x107a50e0543c4036,
		"cc/min/star40k":         0xa60e805da1c75b09,
		"cc/min/rmat12":          0x1f1473485cd67c7,
		"cc/min/rmat12c":         0x1f1473485cd67c7,
		"cc/min/n=1":             0x86e2d05dce3f1f29,
		"cc/min/edgeless":        0x41319cac1e648486,
		"pagerank/sum/path4096":  0x927ec87b51fa986b,
		"pagerank/sum/grid64":    0x48b89deac337467e,
		"pagerank/sum/star40k":   0xb06e95ff2b6d2144,
		"pagerank/sum/rmat12":    0x9c905790a061d77b,
		"pagerank/sum/rmat12c":   0x9c905790a061d77b,
		"pagerank/sum/n=1":       0xb6bea7fd2cdd4531,
		"pagerank/sum/edgeless":  0x2065883b5ee1674d,
		"probe/closure/path4096": 0x873ea35c705fc514,
		"probe/closure/grid64":   0x4ccef7fc38bf44b4,
		"probe/closure/star40k":  0x6bf1b4360fd9ecf,
		"probe/closure/rmat12":   0x484df9c7ea419529,
		"probe/closure/rmat12c":  0x484df9c7ea419529,
		"probe/closure/n=1":      0x8828ebce820868ee,
		"probe/closure/edgeless": 0xb4a7d05a0b277f3e,
	}
	// bothWays are rows whose traffic must cross the cutoff upwards and back
	// down within the run, so CSR → lookaside and lookaside → CSR hand-overs
	// both sit between two supersteps that read the inbox.
	bothWays := map[string]bool{"bfs/rmat12": true, "bfs/rmat12c": true}
	for _, p := range progs {
		for _, gr := range graphs {
			row := p.name + "/" + gr.name
			t.Run(row, func(t *testing.T) {
				for _, w := range []int{1, 3, 8} {
					cfg, sink := p.mk(gr.g), &stepCapture{}
					cfg.Obs = sink
					res, ph, err := runRec(gr.g, w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := hashRun(res, ph); got != golden[row] {
						t.Errorf("w=%d: hash %#x, golden %#x", w, got, golden[row])
					}
					look, ups, downs := lookasideBoundaries(res, gr.g.NumVertices())
					for k, want := range look {
						if d := sink.steps[k].Delivery; strings.HasPrefix(d, "lookaside") != want {
							t.Errorf("w=%d: boundary %d delivered by %q, traffic says lookaside = %v", w, k, d, want)
						}
					}
					if bothWays[row] && (ups < 2 || downs < 1) {
						t.Errorf("w=%d: traffic never crosses the cutoff both ways between two supersteps: %v", w, res.MessagesPerStep)
					}
				}
			})
		}
	}
}

// TestDenseInboxRecovery kills a full-scan run at every boundary where the
// representation changes hands — the first delivery that took the lookaside
// and the first one back on the CSR, each time the traffic crosses — and
// resumes it; and separately panics once in the superstep that reads that
// boundary's inbox and lets the supervisor retry it (recoverAcross). A
// resume must re-deliver through the same decision, a rollback must leave
// the sweep reading what the last delivery built.
func TestDenseInboxRecovery(t *testing.T) {
	g := detGraph(t)
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs", func() core.Config { return core.Config{Program: bspalg.BFSProgram{Source: quietSource(g)}} }},
		{"bfs/min", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: quietSource(g)}, Combiner: core.Min}
		}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w=%d", tc.name, w), func(t *testing.T) {
				mk := func() core.Config {
					cfg := tc.mk()
					cfg.MaxRetries = 1
					return cfg
				}
				base, basePh, err := runRec(g, w, mk())
				if err != nil {
					t.Fatal(err)
				}
				takeRetries(t, base)
				look, _, _ := lookasideBoundaries(base, g.NumVertices())
				toLook, toCSR := 0, 0
				for k := range look {
					if k == 0 && !look[k] || k > 0 && look[k] == look[k-1] {
						continue
					}
					if look[k] {
						toLook++
					} else {
						toCSR++
					}
					recoverAcross(t, g, w, mk, base, basePh, k)
				}
				if toLook == 0 || toCSR == 0 {
					t.Fatalf("no hand-over in both directions to recover across: lookaside boundaries %v", look)
				}
			})
		}
	}
}
