package core_test

// The fused pull where it meets untrusted input: a graph whose adjacency is
// not what its flags say has to fail typed instead of letting push and pull
// disagree; and on generated graphs, pulling equals pushing. That it does
// on every fixed graph, resumed and retried, is the matrix's
// (TestEngineMatrix).

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/obs"
)

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
// A no-combiner pull reports its delivered count from out-degrees on trust,
// so the sweep that follows must notice. A combining one sees the hub
// broadcasting alone as saturated, and would fold the hub the fold's
// identity out of its leaves' untouched slots where push hands it nothing:
// the run's first saturated boundary checks. Either pull fails typed at
// superstep 0 having gathered nothing, on the mmap'd compressed graph and
// on its flat twin, where push runs and hands the hub nothing.
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
		for _, combine := range []func(a, b int64) int64{nil, core.Sum, core.Min} {
			for _, w := range []int{1, 3} {
				// The hub broadcasts, and notes a message arriving.
				var phantom atomic.Bool
				cfg := core.Config{Combiner: combine, Program: program(func(v *core.VertexContext) {
					if v.ID() == 0 {
						phantom.Store(phantom.Load() || len(v.Messages()) > 0)
						v.SendToNeighbors(42)
					}
					v.VoteToHalt()
				})}
				core.ForceDirection(core.DirPull)(&cfg)
				_, _, err := runRec(g, w, cfg)
				var ae *core.AsymmetricGraphError
				if !errors.As(err, &ae) || ae.Superstep != 0 || ae.Gathered != 0 || combine == nil && ae.Delivered != n-1 {
					t.Fatalf("%s w=%d: want AsymmetricGraphError at superstep 0 with nothing gathered, got %v", g.Rep(), w, err)
				}
				core.ForceDirection(core.DirPush)(&cfg)
				if _, _, err := runRec(g, w, cfg); err != nil || phantom.Load() {
					t.Fatalf("%s w=%d: forced push: %v, a message handed the hub: %v", g.Rep(), w, err, phantom.Load())
				}
			}
		}
	}
}

// FuzzPullEquivalence: on a generated graph — a power law with a tail of
// vertices no edge touches, uniform random, a star, preferential attachment,
// each with well over 2^14 arcs — the order probe forced to pull every
// eligible superstep gives what it gives forced to push: answer, counters
// and profile, under every combiner, activation, representation and worker
// count.
func FuzzPullEquivalence(f *testing.F) {
	for shape := uint8(0); shape < 8; shape++ {
		f.Add(uint64(shape)+1, shape, shape+1, shape%2 == 0, shape)
	}
	probes := slices.DeleteFunc(matrixRows(), func(r *mrow) bool { return !strings.HasPrefix(r.name, "probe") })
	f.Fuzz(func(t *testing.T, seed uint64, shape, probe uint8, sparse bool, workers uint8) {
		var g *graph.Graph
		var err error
		switch shape % 4 {
		case 0:
			var edges []graph.Edge
			var n int64
			if edges, n, err = gen.RMATEdges(gen.RMATConfig{Scale: 10, EdgeFactor: 24, Seed: seed}); err == nil {
				g, err = graph.Build(n+int64(seed%97), edges, graph.BuildOptions{})
			}
		case 1:
			g, err = gen.ErdosRenyi(3000+int64(seed%1000), 24000, seed)
		case 2:
			g = gen.Star(36001 + int64(seed%512))
		default:
			g, err = gen.BarabasiAlbert(4000, 6, seed)
		}
		if err != nil {
			t.Skip(err)
		}
		if seed&1 == 1 {
			g = core.MustCompress(g)
		}
		r := probes[int(probe)%len(probes)]
		run := func(w int, d core.DirectionMode) outcome {
			o, err := exec(r, g, w, nil, core.ForceDirection(d), func(c *core.Config) { c.SparseActivation = sparse })
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
		push, pull := run(1, core.DirPush), run(1+int(workers%8), core.DirPull)
		if !slices.ContainsFunc(pull.steps, func(st obs.StepStats) bool { return st.Direction == "pull" }) {
			t.Fatalf("%s: forced pull never pulled", r.name)
		}
		if !reflect.DeepEqual(push.val, pull.val) || !slices.EqualFunc(push.steps, pull.steps, func(a, b obs.StepStats) bool { return logical(a) == logical(b) }) {
			t.Fatalf("%s: pull differs from push", r.name)
		}
		comparePhases(t, push.phases, pull.phases)
	})
}
