package core_test

// The fused pull, where it meets recovery and untrusted input: a pull
// boundary leaves nothing behind but the stamped broadcaster lookaside, and
// the following sweep gathers from it. A resume has to re-stamp it, a retry
// has to find it intact, and a graph whose adjacency is not what its flags
// say has to fail typed instead of letting push and pull disagree.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/trace"
)

// TestPullRecovery kills a run exactly at each pull boundary and resumes
// it, and separately panics once in the superstep that gathers from that
// boundary and lets the supervisor retry it. Both must be bit-identical —
// Result, decision record and profile — to the undisturbed run. w=1 is the
// serial sweep, which overwrites the previous boundary's broadcast records
// in place while the lookaside stamped from them is still being read.
func TestPullRecovery(t *testing.T) {
	g := detGraph(t)
	cases := []struct {
		name string
		mk   func() core.Config
	}{
		{"probe", func() core.Config { return core.Config{Program: orderProbe{rounds: 4}} }},
		{"cc/combiner", func() core.Config { return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min} }},
		{"probe/sparse", func() core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, SparseActivation: true}
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
				tested := 0
				// The terminal superstep has no boundary.
				for k, d := range base.DirectionPerStep[:base.Supersteps-1] {
					if d != core.DirPull {
						continue
					}
					tested++

					recoverAcross(t, g, w, mk, base, basePh, k)
				}
				if tested == 0 {
					t.Fatalf("no pull boundary to recover across: %v", base.DirectionPerStep)
				}
			})
		}
	}
}

// recoverAcross is the drill for one boundary k of a run made by mk
// (MaxRetries ≥ 1) whose undisturbed outcome is base/basePh: kill the run
// exactly at k and resume it, then, separately, panic once in superstep
// k+1 — the one that reads what boundary k delivered — and let the
// supervisor retry it. Both must equal the undisturbed run bit for bit.
func recoverAcross(t *testing.T, g *graph.Graph, w int, mk func() core.Config, base *core.Result, basePh []*trace.Phase, k int) {
	t.Helper()
	dir := t.TempDir()
	plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
	cfg := mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
	_, _, err := runRec(g, w, cfg)
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
	}
	cfg = mk()
	cfg.Checkpoint = &ckpt.Policy{Dir: dir}
	cfg.Resume = ie.CheckpointPath
	res, ph, err := runRec(g, w, cfg)
	if err != nil {
		t.Fatalf("resume from kill@%d: %v", k, err)
	}
	takeRetries(t, res)
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("kill@%d: resumed Result differs from the uninterrupted run", k)
	}
	comparePhases(t, basePh, ph)

	cfg = mk()
	cfg.Program = newTransientStep(cfg.Program, k+1, 1)
	res, ph, err = runRec(g, w, cfg)
	if err != nil {
		t.Fatalf("panic@%d: %v", k+1, err)
	}
	assertRetries(t, takeRetries(t, res), k+1, 1)
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("panic@%d: retried Result differs from the fault-free run", k+1)
	}
	comparePhases(t, basePh, ph)
}

// outStarCSR2 writes a hand-crafted CSR2 file, byte by byte after the
// layout in graphio's csr2.go: a star whose hub lists every leaf and whose
// leaves list nothing, so the loader hands the engine a graph whose
// adjacency is not symmetric. OpenCSR2 checks shape in O(n), never symmetry.
func outStarCSR2(t *testing.T, n int64) string {
	t.Helper()
	le := binary.LittleEndian
	// page zero-pads b to the next 4096-byte section boundary.
	page := func(b []byte) []byte { return append(b, make([]byte, (4096-len(b)%4096)%4096)...) }
	// Header: magic, then u64 flags, n, m and blob length; one blob byte
	// per arc, since every delta is below 128.
	b := []byte("GXMTCSR2")
	for _, x := range []int64{0, n, n - 1, n - 1} {
		b = le.AppendUint64(b, uint64(x))
	}
	// The degree prefix sum and the blob's byte offsets are the same array
	// here: [0, n-1, n-1, ..., n-1].
	for range 2 {
		b = le.AppendUint64(page(b), 0)
		for v := int64(1); v <= n; v++ {
			b = le.AppendUint64(b, uint64(n-1))
		}
	}
	// The hub's list: zigzag(1-0) = 2, then deltas of 1.
	b = append(page(b), 2)
	for w := int64(2); w < n; w++ {
		b = append(b, 1)
	}
	path := filepath.Join(t.TempDir(), "outstar.csr2")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPullAsymmetricGraph: on such a file push scatters the hub's flood to
// 20000 leaves and pull gathers nothing — every leaf's own list is empty.
// The no-combiner pull reports its delivered count from out-degrees on
// trust, so the sweep that follows must notice and name the superstep, on
// the mmap'd compressed graph and on its flat twin.
func TestPullAsymmetricGraph(t *testing.T) {
	const n = 20001
	comp, closer, err := graphio.OpenCSR2(outStarCSR2(t, n))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !comp.Compressed() {
		t.Fatal("fixture loaded flat")
	}
	for _, g := range []*graph.Graph{comp, graph.Decompress(comp)} {
		for _, w := range []int{1, 3} {
			_, _, err := runRec(g, w, core.Config{Program: bspalg.BFSProgram{Source: 0}, Direction: core.DirPull})
			var ae *core.AsymmetricGraphError
			if !errors.As(err, &ae) {
				t.Fatalf("%s w=%d: want AsymmetricGraphError, got %v", g.Rep(), w, err)
			}
			if ae.Superstep != 0 || ae.Delivered != n-1 || ae.Gathered != 0 {
				t.Fatalf("%s w=%d: %+v", g.Rep(), w, ae)
			}
			if _, _, err := runRec(g, w, core.Config{Program: bspalg.BFSProgram{Source: 0}, Direction: core.DirPush}); err != nil {
				t.Fatalf("%s w=%d: forced push: %v", g.Rep(), w, err)
			}
		}
	}
}

// fuzzCombiners indexes FuzzPullEquivalence's combiner argument: none, the
// three built-ins the gather recognises, and a closure it cannot.
var fuzzCombiners = []func(a, b int64) int64{
	nil, core.Or, core.Sum, core.Min,
	func(a, b int64) int64 { return max(a, b) },
}

// fuzzGraph generates one of the shapes the gather has to get right, each
// with well over 2^14 arcs so three quarters of the vertices flooding is a
// pull-eligible superstep.
func fuzzGraph(seed uint64, shape uint8) (*graph.Graph, error) {
	switch shape % 5 {
	case 0:
		return gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 12, Seed: seed})
	case 1:
		return gen.ErdosRenyi(3000+int64(seed%1000), 24000, seed)
	case 2:
		return gen.Star(36001 + int64(seed%512)), nil
	case 3: // vertices no edge touches
		edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 10, EdgeFactor: 24, Seed: seed})
		if err != nil {
			return nil, err
		}
		return graph.Build(n+int64(seed%97), edges, graph.BuildOptions{})
	default:
		return gen.BarabasiAlbert(4000, 6, seed)
	}
}

// fuzzPrograms indexes FuzzPullEquivalence's shape argument beyond the
// graph shapes (shape/5): the order probe; three quarters of the vertices
// broadcasting the identity of one built-in fold or another, which the
// gather folds unasked out of every unstamped slot; and every vertex
// broadcasting in every round, a saturated boundary under a combiner.
var fuzzPrograms = []core.Program{
	orderProbe{rounds: 3},
	scriptProbe{rounds: 3, cast: func(step int, v int64) []int64 {
		if (v+int64(step))%4 == 0 {
			return nil
		}
		return [][]int64{{0}, {math.MaxInt64}}[v>>2&1]
	}},
	scriptProbe{rounds: 3, cast: func(step int, v int64) []int64 { return []int64{v ^ int64(step)} }},
}

// FuzzPullEquivalence: on generated graphs, a run that pulls every eligible
// superstep equals the run that pushes them all — Result and profile — for
// any combiner treatment, activation mode, representation and worker count.
func FuzzPullEquivalence(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(uint64(shape)+1, shape, shape+1, shape%2 == 0, shape)
		f.Add(uint64(shape)+6, shape+5, shape+2, shape%2 == 1, shape+3)   // identity-valued payloads
		f.Add(uint64(shape)+11, shape+10, shape+3, shape%2 == 0, shape+1) // an all-broadcast superstep
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, combiner uint8, sparse bool, workers uint8) {
		g, err := fuzzGraph(seed, shape)
		if err != nil {
			t.Skip(err)
		}
		if seed&1 == 1 {
			g = core.MustCompress(g)
		}
		mk := func(d core.DirectionMode) core.Config {
			return core.Config{
				Program:          fuzzPrograms[int(shape)/5%len(fuzzPrograms)],
				Combiner:         fuzzCombiners[int(combiner)%len(fuzzCombiners)],
				SparseActivation: sparse,
				Direction:        d,
			}
		}
		push, pushPh, err := runRec(g, 1, mk(core.DirPush))
		if err != nil {
			t.Fatal(err)
		}
		pull, pullPh, err := runRec(g, 1+int(workers%8), mk(core.DirPull))
		if err != nil {
			t.Fatal(err)
		}
		if !hasDir(pull, core.DirPull) {
			t.Fatalf("forced pull never pulled: sent %v", pull.MessagesPerStep)
		}
		if !reflect.DeepEqual(sansDirections(push), sansDirections(pull)) {
			t.Fatalf("pull differs from push\n  active %v vs %v\n  delivered %v vs %v",
				push.ActivePerStep, pull.ActivePerStep, push.DeliveredPerStep, pull.DeliveredPerStep)
		}
		comparePhases(t, pushPh, pullPh)
	})
}
