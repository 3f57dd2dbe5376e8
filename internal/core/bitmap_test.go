package core_test

// The per-vertex bitmaps where a word boundary falls. That a run's Result
// and profile are the same at any worker count is the matrix's
// (TestEngineMatrix).

import (
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// TestBitmapWordEdges pins the per-vertex bitmaps — halted, visited, the
// inbox's receivers — where a word boundary falls: BFS from vertex 0 on a
// path, a star and a grid of n vertices, n either side of a multiple of 64,
// under the full scan and sparse activation. Each row checks that
//   - a run that retries every superstep once ends as an undisturbed one;
//   - the vertices that run are those a plain BFS says receive, and a sparse
//     sweep scans no others: a receiver bit the next delivery failed to
//     retire would run or scan a vertex more;
//   - at every boundary the checkpointed halted set has exactly live clear
//     bits below n and, like visited, no bit set past it (on the 4097-vertex
//     path, whose 4096 boundaries would cost a file sync each, only where
//     it is killed), and a run checkpointing every boundary at w=8 ends as
//     the w=1 run does.
//
// A full scan that dropped its [lo, hi) mask would run vertices past n and
// fail every row whose n is not a multiple of 64.
func TestBitmapWordEdges(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(n int64) *graph.Graph
	}{
		{"path", gen.Path},
		{"star", gen.Star},
		{"grid", func(n int64) *graph.Graph {
			rows := int64(1)
			for r := int64(2); r*r <= n; r++ {
				if n%r == 0 {
					rows = r
				}
			}
			return gen.Grid(rows, n/rows)
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int64{1, 63, 64, 65, 127, 129, 4097} {
			g := sh.mk(n)
			wantActive, firstRun := bfsReceivers(g)
			for _, sparse := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/sparse=%v", sh.name, n, sparse), func(t *testing.T) {
					cfg := func() core.Config {
						return core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: sparse, MaxSupersteps: -1}
					}
					base, basePh, err := runRec(g, 1, cfg())
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(base.ActivePerStep, wantActive) {
						t.Fatalf("ActivePerStep = %v, a plain BFS says %v", base.ActivePerStep, wantActive)
					}
					for _, p := range basePh {
						if p.Name != "bsp/scan" {
							continue
						}
						want := n
						if sparse && p.Index > 0 {
							want = wantActive[p.Index]
						}
						if p.Tasks != want {
							t.Fatalf("superstep %d scans %d vertices, want %d (%d run)", p.Index, p.Tasks, want, wantActive[p.Index])
						}
					}
					// One transient panic in every superstep, at a vertex that runs:
					// each retry rolls back to another boundary of one run.
					var spec []string
					for s, v := range firstRun {
						spec = append(spec, fmt.Sprintf("panicn@%d:%d:1", s, v))
					}
					c := cfg()
					c.Program = mustPlan(t, strings.Join(spec, ";")).WrapProgram(c.Program)
					res, ph, err := runRec(g, 3, c, core.WithRetries(1))
					if err != nil || !slices.Equal(res.RetriesPerStep, slices.Repeat([]int64{1}, base.Supersteps)) {
						t.Fatalf("retry every superstep: %v, RetriesPerStep %v", err, res.RetriesPerStep)
					}
					if res.RetriesPerStep = nil; !reflect.DeepEqual(base, res) {
						t.Fatal("retry every superstep: Result differs from w=1's")
					}
					comparePhases(t, basePh, ph)
					if base.Supersteps <= 1<<10 {
						// Every boundary, checked as the checkpoint writer encodes it.
						tap := &haltedTap{}
						res, ph, err = runRec(g, 8, cfg(), core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir(), Keep: 1, Hooks: &ckpt.Hooks{WrapWrite: func(_ int64, w io.Writer) io.Writer {
							tap.writes = 0
							return io.MultiWriter(w, tap)
						}}}))
						if err != nil || tap.err != nil || !reflect.DeepEqual(base, res) {
							t.Fatalf("checkpointed at w=8: %v, %v; Result equal to w=1's: %v", err, tap.err, reflect.DeepEqual(base, res))
						}
						comparePhases(t, basePh, ph)
						for _, s := range tap.snaps {
							checkBitmaps(t, s)
						}
						if len(tap.snaps) != base.Supersteps-1 {
							t.Fatalf("checked %d boundaries, the run has %d", len(tap.snaps), base.Supersteps-1)
						}
					}
					last := int64(base.Supersteps - 2) // the last boundary
					for k := range last + 1 {
						if k <= 1 || k == 63 || k == 64 || k == last/2 || k == last {
							snap, err := ckpt.Load(killedAt(t, g, cfg(), k))
							if err != nil {
								t.Fatal(err)
							}
							checkBitmaps(t, snap)
						}
					}
				})
			}
		}
	}
}

// bfsReceivers is what BFSProgram from vertex 0 runs, from a plain BFS:
// every vertex in superstep 0, then in each superstep the neighbors of the
// level found in the one before, for as long as that level has an edge to
// send along. first is the lowest vertex that runs in each superstep.
func bfsReceivers(g *graph.Graph) (active, first []int64) {
	n := g.NumVertices()
	seen := make([]bool, n)
	seen[0] = true
	active, first = []int64{n}, []int64{0}
	for level := []int64{0}; ; {
		recv := map[int64]bool{}
		var next []int64
		for _, v := range level {
			for _, w := range g.Neighbors(v) {
				recv[w] = true
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		if len(recv) == 0 {
			return active, first
		}
		active = append(active, int64(len(recv)))
		first = append(first, slices.Min(slices.Collect(maps.Keys(recv))))
		level = next
	}
}

// haltedTap reads each boundary's checkpoint payload as the writer encodes
// it — the second Write of a checkpoint file, after its header — and keeps
// it decoded for checkBitmaps once the run has returned: the write runs on
// the checkpoint writer's goroutine, where a test may not stop.
type haltedTap struct {
	writes int
	snaps  []*ckpt.Snapshot
	err    error
}

func (h *haltedTap) Write(b []byte) (int, error) {
	if h.writes++; h.writes != 2 {
		return len(b), nil
	}
	s, err := ckpt.Decode(b, "tap")
	if err != nil && h.err == nil {
		h.err = fmt.Errorf("boundary %d: %w", len(h.snaps), err)
	}
	h.snaps = append(h.snaps, s)
	return len(b), nil
}

// checkBitmaps: the boundary's halted set has live clear bits below n, and
// no bit set past n.
func checkBitmaps(t *testing.T, s *ckpt.Snapshot) {
	t.Helper()
	n := s.FP.Vertices
	var clear int64
	for v := int64(0); v < n; v++ {
		if s.Halted.Words[v>>6]>>(v&63)&1 == 0 {
			clear++
		}
	}
	if clear != s.Live {
		t.Fatalf("boundary %d: %d vertices below n=%d are not halted, live = %d", s.Step, clear, n, s.Live)
	}
	if k := len(s.Halted.Words); k > 0 && n%64 != 0 && s.Halted.Words[k-1]>>(n%64) != 0 {
		t.Fatalf("boundary %d: the halted set has bits set past n=%d: %#x", s.Step, n, s.Halted.Words[k-1])
	}
}
