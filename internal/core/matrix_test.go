package core_test

// The engine's equivalence matrix. Result and the charged profile may not
// depend on how the host runs a program: how many workers sweep, how the
// adjacency is stored, which direction a superstep delivers in, whether
// broadcasts travel as records or per-edge messages, whether the sweep
// scans every vertex or only the awake ones, or whether the run was killed
// and resumed or a superstep retried. One table declares those axes, and
// every row runs on every graph through every valid cell:
//
//	workers     1, 3, 8
//	rep         flat, compressed
//	direction   push, decided (the engine's own), pull (ForceDirection)
//	broadcasts  records, expanded (WithExpandBroadcasts)
//	schedule    full scan, sparse activation
//	fault       none, kill at boundary k then resume, a panic in
//	            superstep k then retry
//
// The rows are every BSP row of bspalg's kernel table, run through its
// runner with core.Options, and the probes below. A cell's baseline is its
// row and graph at one worker, flat, push, records, no fault, under the
// same schedule. TestEngineMatrix says what a cell checks; DESIGN.md how to
// add a row, a graph or an axis.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/graphio"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// orderProbe is the order-sensitive program: a vertex's state is a rolling
// hash of Messages() in the order the engine yields them, so an inbox with
// the right multiset in the wrong order — or folded where it should not be
// — changes every downstream state. Every vertex broadcasts in superstep 0,
// a saturated boundary under a combiner; then about three quarters do in
// each of the rounds that follow — frontiers dense enough to pull, yet far
// from all-stamped — now and then a fold's identity (0 for Or and Sum, the
// extremes for Min and max), which is a message all the same, and in
// superstep 1 now and then twice.
type orderProbe struct{ rounds int }

func (orderProbe) InitialState(_ *graph.Graph, v int64) int64 { return v*0x9E3779B9 + 1 }

func (p orderProbe) Compute(v *core.VertexContext) {
	h := foldInbox(v)
	v.SetState(h)
	if s, x := v.Superstep(), uint64(h); s == 0 || s < p.rounds && x>>11%4 != 0 {
		v.SendToNeighbors([]int64{0, math.MaxInt64, math.MinInt64, h}[min(x>>13%16, 3)])
		if s == 1 && x>>17%32 == 0 {
			v.SendToNeighbors(h + 1)
		}
	}
	v.VoteToHalt()
}

// foldInbox hashes v's state with its messages, in the order they arrive.
func foldInbox(v *core.VertexContext) int64 {
	h := v.State()
	for _, m := range v.Messages() {
		h = h*1099511628211 + m
	}
	return h
}

// logChunk is the sweep chunk on the circulant (16384 vertices in 256
// degree-weighted ranges): logProbe's senders are the first vertex of each.
const logChunk = 64

// logSends are the unicasts logProbe's senders make: per-chunk logs that end
// just short of, at and just past a log block, and span several.
var logSends = func() []int {
	const B = core.UnitRunsPerBlock
	return []int{0, 1, B - 1, B, B + 1, 3*B + 7, B, 0, B}
}()

// logProbe folds its inbox in order into its state. In superstep 0 the
// first vertex of sweep chunk c sends logSends[c] unicasts, a third of them
// to vertex 0 (a hub group big enough for the segmented fold), with one
// SendToNeighbors in the middle of the stream on even chunks; every 97th
// vertex interleaves Send, SendToNeighbors, Send. Superstep 1 relays up to
// four messages per receiver and broadcasts from every 89th vertex.
type logProbe struct{}

func (logProbe) InitialState(_ *graph.Graph, v int64) int64 { return v*0x9E3779B9 + 1 }

func (logProbe) Compute(v *core.VertexContext) {
	h := foldInbox(v)
	v.SetState(h)
	id, n, c := v.ID(), v.NumVertices(), int(v.ID()/logChunk)
	switch {
	case v.Superstep() == 0 && id%logChunk == 0 && c < len(logSends):
		k := logSends[c]
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
	case v.Superstep() == 0 && id%97 == 3:
		v.Send((id*31+7)%n, h)
		v.SendToNeighbors(h + 1)
		v.Send((id*17+5)%n, h+2)
	case v.Superstep() == 1:
		for i := 0; i < min(len(v.Messages()), 4); i++ {
			v.Send((id*31+int64(i)*7+h&0xff)%n, h+int64(i))
		}
		if id%89 == 0 {
			v.SendToNeighbors(h)
		}
	}
	v.VoteToHalt()
}

// stepCapture is an obs sink retaining per-superstep counters only.
type stepCapture struct{ steps []obs.StepStats }

func (c *stepCapture) RunStart(obs.RunInfo)  {}
func (c *stepCapture) Span(obs.Span)         {}
func (c *stepCapture) Step(st obs.StepStats) { c.steps = append(c.steps, st) }
func (c *stepCapture) Mem(obs.MemSample)     {}
func (c *stepCapture) RunEnd(time.Duration)  {}

func comparePhases(t *testing.T, want, got []*trace.Phase) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("phase count %d != %d", len(got), len(want))
	}
	for i := range want {
		if a, b := want[i], got[i]; !reflect.DeepEqual(*a, *b) {
			t.Fatalf("phase %d (%s/%d) differs:\n  baseline: %+v\n  cell:     %+v", i, a.Name, a.Index, a, b)
		}
	}
}

// mrow is one row: a kernel-table row through its BSP runner (k), or a
// probe through core.Run (mk).
type mrow struct {
	name  string
	k     *bspalg.Kernel
	batch bool // Params carry a four-source plan
	mk    func() core.Config
}

func (r *mrow) params(g *graph.Graph) bspalg.Params {
	p := bspalg.Params{Source: g.MaxDegreeVertex(), Rounds: 7, Seed: 3, Samples: 4}
	if n := g.NumVertices(); r.batch {
		p.Plan, _ = batch.NewPlan([]int64{p.Source, 0, n / 2, n - 1}, n)
		p.Batch = true
	}
	return p
}

func matrixRows() []*mrow {
	var rows []*mrow
	for _, name := range strings.Split(bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil }), ", ") {
		k := bspalg.Lookup(name)
		single := k.Reads&bspalg.Sources == 0 || k.Reads&bspalg.Source != 0
		if single {
			rows = append(rows, &mrow{name: name, k: k})
		}
		if k.Reads&bspalg.Sources != 0 {
			rows = append(rows, &mrow{name: name + map[bool]string{true: "-batch"}[single], k: k, batch: true})
		}
	}
	for _, cb := range []struct {
		name string
		f    func(a, b int64) int64
	}{{"", nil}, {"-or", core.Or}, {"-sum", core.Sum}, {"-min", core.Min}, {"-closure", func(a, b int64) int64 { return max(a, b) }}} {
		rows = append(rows, &mrow{name: "probe" + cb.name, mk: func() core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, Combiner: cb.f}
		}})
	}
	return append(rows, &mrow{name: "log", mk: func() core.Config { return core.Config{Program: logProbe{}} }},
		&mrow{name: "log-sum", mk: func() core.Config { return core.Config{Program: logProbe{}, Combiner: core.Sum} }},
		// 3a-b is neither associative nor commutative: only the left fold in
		// send order gives the baseline's answer.
		&mrow{name: "probe-3a-b", mk: func() core.Config {
			return core.Config{Program: orderProbe{rounds: 4}, Combiner: func(a, b int64) int64 { return 3*a - b }}
		}})
}

// mgraph is one graph, with its compressed twin and a relabelled copy
// (vertex v is perm[v] there; edge weights move with their edges).
type mgraph struct {
	name            string
	flat, comp, rel *graph.Graph
	perm            []int64
	// only, if set, picks the rows the graph runs; a pushOnly graph runs
	// the push direction alone.
	only     func(r *mrow) bool
	pushOnly bool
}

// runs reports whether gr runs r: a row reading a source needs a vertex.
func (gr *mgraph) runs(r *mrow) bool {
	return (gr.only == nil || gr.only(r)) && (gr.flat.NumVertices() > 0 || r.k == nil || r.k.Reads&(bspalg.Source|bspalg.Sources) == 0)
}

func newMGraph(name string, n int64, edges []graph.Edge) *mgraph {
	w := graph.BuildOptions{Weights: gen.UniformWeights(len(edges), 9, uint64(n))}
	gr := &mgraph{name: name, flat: graph.MustBuild(n, edges, w), perm: make([]int64, n)}
	gr.comp = core.MustCompress(gr.flat)
	for v, p := range rand.New(rand.NewPCG(uint64(n)+7, 0)).Perm(int(n)) {
		gr.perm[v] = int64(p)
	}
	moved := make([]graph.Edge, len(edges))
	for i, e := range edges {
		moved[i] = graph.Edge{U: gr.perm[e.U], V: gr.perm[e.V]}
	}
	gr.rel = graph.MustBuild(n, moved, w)
	return gr
}

// matrixGraphs are bspalg's kernel fixtures' shapes, then a scale-11 RMAT;
// a star whose hub dwarfs its chunk; the circulant logProbe's chunks are cut
// from; a 2^18-vertex ring; cliques and vertices no edge touches; a
// Barabási–Albert power law; and the out-star read through mmap, whose hub
// lists every leaf and whose leaves list nothing.
func matrixGraphs(t *testing.T) []*mgraph {
	probe := func(r *mrow) bool { return r.k == nil }
	var gs []*mgraph
	add := func(name string, n int64, edges []graph.Edge) *mgraph {
		gs = append(gs, newMGraph(name, n, edges))
		return gs[len(gs)-1]
	}
	add("path", 12, gen.Path(12).EdgeList())
	add("star", 9, gen.Star(9).EdgeList())
	add("grid", 30, gen.Grid(5, 6).EdgeList())
	add("empty", 0, nil)
	add("n=1", 1, nil)
	add("loops+multi", 7, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 2},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 5}})
	for _, cfg := range []gen.RMATConfig{{Scale: 5, EdgeFactor: 4, Seed: 1}, {Scale: 6, EdgeFactor: 6, Seed: 2},
		{Scale: 7, EdgeFactor: 8, Seed: 3}, {Scale: 11, EdgeFactor: 8, Seed: 42}} {
		edges, n, err := gen.RMATEdges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("rmat%d", cfg.Scale), n, edges)
	}
	// The star's hub closes no triangle, which the triangle references take
	// seconds to find out.
	add("star40k", 40001, gen.Star(40001).EdgeList()).only = func(r *mrow) bool {
		return !strings.HasPrefix(r.name, "tc")
	}
	const cn = 1 << 14
	var circ []graph.Edge
	for i := int64(0); i < 4*cn; i++ {
		circ = append(circ, graph.Edge{U: i / 4, V: (i/4 + i%4 + 1) % cn})
	}
	// A BFS or CC on the circulant runs 2048 supersteps.
	add("circulant", cn, circ).only = probe
	// On a graph this large a superstep of 2^14 messages or more and under
	// n/4 takes the lookaside at one worker and the parallel sort at more:
	// the only way a lookaside's inbox meets another path's. The log rows'
	// supersteps are such, once their broadcasts are expanded; the order
	// probes' are dense.
	ring := gen.Ring(1 << 18)
	add("ring", ring.NumVertices(), ring.EdgeList()).only = func(r *mrow) bool { return strings.HasPrefix(r.name, "log") }
	add("cliques", 12*40+64, gen.CliqueChain(12, 40).EdgeList())
	ba := mustGraph(gen.BarabasiAlbert(1<<11, 8, 7))
	add("ba", ba.NumVertices(), ba.EdgeList())
	comp, closer, err := graphio.OpenCSR2(outStarCSR2(t, 20001))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	// A pull gathers along the receiver's list, and on the out-star finds
	// nothing: it fails typed (TestPullAsymmetricGraph). The kernels'
	// references and twins read a symmetric graph.
	return append(gs, &mgraph{name: "outstar", flat: graph.Decompress(comp), comp: comp, pushOnly: true,
		only: func(r *mrow) bool { return probe(r) || r.name == "bfs" || r.name == "cc" }})
}

// The factors: the row, the graph, then the axes.
const (
	axRow = iota
	axGraph
	axWorkers
	axRep
	axDir
	axBcast
	axSched
	axFault
)

var (
	// matrixAxes name each axis's values as a cell's name does.
	matrixAxes = [][]string{
		axWorkers - 2: {"w=1", "w=3", "w=8"},
		axRep - 2:     {"flat", "compressed"},
		axDir - 2:     {"push", "decided", "pull"},
		axBcast - 2:   {"records", "expanded"},
		axSched - 2:   {"full", "sparse"},
		axFault - 2:   {"none", "kill", "retry"},
	}
	matrixWorkers = []int{1, 3, 8}
	matrixDirs    = []core.DirectionMode{core.DirPush, core.DirAuto, core.DirPull}
)

// sample is tier-1's cells. The p-th allowed (row, graph) pair gets three
// cells whose axis values turn at different rates with p, so that the pair
// meets every value of every axis and, over the pairs, every two axis
// values meet; a value ok forbids gives way to the first it allows. Then
// each pair of factor values still apart, and each seed, gets a cell.
func sample(sizes []int, ok func(f1, l1, f2, l2 int) bool, seeds [][]int) [][]int {
	allowed := func(c []int, f int) bool {
		for f2 := range c {
			if a, b := min(f, f2), max(f, f2); f2 != f && c[f2] >= 0 && !ok(a, c[a], b, c[b]) {
				return false
			}
		}
		return true
	}
	// fill gives every unset factor of c the first value ok allows.
	fill := func(c []int) []int {
		for f := range c {
			for l := 0; c[f] < 0 || !allowed(c, f); l++ {
				c[f] = l
			}
		}
		return c
	}
	var cells [][]int
	for p, rg := range product(sizes[:axWorkers], ok) {
		for j := range 3 {
			c := append(slices.Clone(rg), j, (j+p)%2, (j+p)%3, (j+p/2)%2, (j+p/4)%2, (j+2*p)%3)
			for f := axWorkers; f < len(c); f++ {
				if !allowed(c, f) {
					c[f] = -1
				}
			}
			cells = append(cells, fill(c))
		}
	}
	for f1 := range sizes {
		for f2 := f1 + 1; f2 < len(sizes); f2++ {
			for _, pair := range product([]int{sizes[f1], sizes[f2]}, func(_, l1, _, l2 int) bool { return ok(f1, l1, f2, l2) }) {
				if !slices.ContainsFunc(cells, func(c []int) bool { return c[f1] == pair[0] && c[f2] == pair[1] }) {
					c := slices.Repeat([]int{-1}, len(sizes))
					c[f1], c[f2] = pair[0], pair[1]
					cells = append(cells, fill(c))
				}
			}
		}
	}
	for _, s := range seeds {
		cells = append(cells, fill(slices.Clone(s)))
	}
	return cells
}

// product is every cell ok allows.
func product(sizes []int, ok func(f1, l1, f2, l2 int) bool) [][]int {
	cells := [][]int{{}}
	for f, size := range sizes {
		var next [][]int
		for _, c := range cells {
		levels:
			for l := range size {
				for f2, l2 := range c {
					if !ok(f2, l2, f, l) {
						continue levels
					}
				}
				next = append(next, append(slices.Clone(c), l))
			}
		}
		cells = next
	}
	return cells
}

// outcome is what a cell compares with its baseline: the runner's answer
// (bspalg.Out, or a probe's Result without the direction and retry records
// its steps carry), every superstep's counters, and the charged profile.
type outcome struct {
	val    any
	steps  []obs.StepStats
	phases []*trace.Phase
}

// exec runs row r on g at w workers under opts, attaching sinks and a
// step capture (unless opts take them away again).
func exec(r *mrow, g *graph.Graph, w int, sinks []obs.Sink, opts ...core.Option) (outcome, error) {
	defer par.SetWorkers(par.SetWorkers(w))
	capt, rec := &stepCapture{}, trace.NewRecorder()
	opts = append([]core.Option{func(c *core.Config) { c.Obs = obs.Tee(append(sinks, capt)...) }}, opts...)
	if r.k != nil {
		out, err := r.k.BSP(g, r.params(g), rec, opts...)
		return outcome{out, capt.steps, rec.Phases()}, err
	}
	cfg := r.mk()
	cfg.Graph, cfg.Recorder = g, rec
	for _, o := range opts {
		o(&cfg)
	}
	res, err := core.Run(cfg)
	if res != nil {
		// The sink saw the decisions and retries the Result records.
		for i, st := range capt.steps {
			at := res.Supersteps - len(capt.steps) + i
			if st.Direction != res.DirectionPerStep[at].String() || res.RetriesPerStep != nil && st.Retries != res.RetriesPerStep[at] {
				return outcome{}, fmt.Errorf("superstep %d: the sink saw %s and %d retries, the Result records %s and %v",
					st.Step, st.Direction, st.Retries, res.DirectionPerStep[at], res.RetriesPerStep)
			}
		}
		res.DirectionPerStep, res.RetriesPerStep = nil, nil
	}
	return outcome{res, capt.steps, rec.Phases()}, err
}

// logical is what a superstep's counters agree on in every cell.
func logical(st obs.StepStats) [7]int64 {
	return [7]int64{int64(st.Step), st.Active, st.Sent, st.Delivered, st.Received, st.FrontierEdges, st.Lanes}
}

// matrixRefs are the graph package's references, for the rows that have one.
var matrixRefs = map[string]func(g *graph.Graph, p bspalg.Params) []int64{
	"cc":  func(g *graph.Graph, _ bspalg.Params) []int64 { return graph.ReferenceComponents(g) },
	"bfs": func(g *graph.Graph, p bspalg.Params) []int64 { return graph.ReferenceBFS(g, p.Source) },
	"bfs-batch": func(g *graph.Graph, p bspalg.Params) (d []int64) {
		for _, s := range p.Plan.Sources {
			d = append(d, graph.ReferenceBFS(g, s)...)
		}
		return d
	},
	"tc":           func(g *graph.Graph, _ bspalg.Params) []int64 { return []int64{graph.ReferenceTriangles(g)} },
	"tc-streaming": func(g *graph.Graph, _ bspalg.Params) []int64 { return []int64{graph.ReferenceTriangles(g)} },
}

// matrix holds what the cells share: baselines, each direction mode's
// decision record, and what the cells reached.
type matrix struct {
	rows          []*mrow
	graphs        []*mgraph
	base          map[[3]int]outcome
	dirs          map[[3]int][]string
	reached       map[string]bool // what TestEngineMatrix requires the sample to reach
	planned, ran  int
	groups, began int
}

// baseline is row ri on graph gi at one worker, flat, push, records, no
// fault, under schedule sched. A sparse baseline also gives the full scan's
// answer and counters; a full one the GraphCT twin's answer (exact rows),
// the reference's, and the message counts countIdentity derives.
func (m *matrix) baseline(t *testing.T, ri, gi, sched int) outcome {
	if b, ok := m.base[[3]int{ri, gi, sched}]; ok {
		return b
	}
	r, gr := m.rows[ri], m.graphs[gi]
	run := func(more ...core.Option) outcome {
		o, err := exec(r, gr.flat, 1, nil, append(more, core.ForceDirection(core.DirPush), func(c *core.Config) { c.SparseActivation = sched == 1 })...)
		if err != nil {
			t.Fatalf("baseline (%s): %v", matrixAxes[axSched-2][sched], err)
		}
		return o
	}
	b := run()
	// Observability is passive: a run with no sink at all is the same.
	if bare := run(func(c *core.Config) { c.Obs = nil }); !reflect.DeepEqual(bare.val, b.val) {
		t.Fatal("the baseline's answer differs without a sink")
	} else {
		comparePhases(t, b.phases, bare.phases)
	}
	m.base[[3]int{ri, gi, sched}] = b
	if full := m.baseline(t, ri, gi, 0); sched == 1 {
		if !reflect.DeepEqual(full.val, b.val) || !slices.EqualFunc(full.steps, b.steps, func(x, y obs.StepStats) bool { return logical(x) == logical(y) }) {
			t.Fatal("the sparse baseline's answer or counters differ from the full scan's")
		}
	} else if r.k != nil && !gr.pushOnly {
		p, out := r.params(gr.flat), b.val.(bspalg.Out)
		if r.k.Exact && !r.batch {
			if tw, _ := r.k.Twin(gr.flat, p, nil); !slices.Equal(out.Answer, tw.Answer) {
				t.Fatalf("answer %v, the GraphCT twin's %v", out.Answer, tw.Answer)
			}
		}
		if ref := matrixRefs[r.name]; ref != nil && !slices.Equal(out.Answer, ref(gr.flat, p)) {
			t.Fatalf("answer %v, the reference's %v", out.Answer, ref(gr.flat, p))
		}
		if err := countIdentity(r.name, gr.flat, out, b.steps); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// countIdentity checks a row's message counts against what the graph and
// the answer alone make them (Chin et al.'s accounting): CC's superstep 0
// broadcasts along every arc, 2m; a BFS sends each reached vertex's degree
// once; TC's superstep 0 sends each of the m edges up, its superstep 1 the
// Σ_v lo(v)·hi(v) wedge candidates of the neighbors below and above each
// vertex, and its superstep 2 one message per triangle. An answer that
// survives a dropped or duplicated send still fails here.
func countIdentity(row string, g *graph.Graph, out bspalg.Out, steps []obs.StepStats) error {
	var sent int64
	for _, st := range steps {
		sent += st.Sent
	}
	n := g.NumVertices()
	switch row {
	case "cc":
		if arcs := g.Offsets()[n]; len(steps) > 0 && steps[0].Sent != arcs {
			return fmt.Errorf("cc superstep 0 sent %d messages, the graph has %d arcs", steps[0].Sent, arcs)
		}
	case "bfs":
		var want int64
		for v, d := range out.Answer {
			if d >= 0 {
				want += g.Degree(int64(v))
			}
		}
		if sent != want {
			return fmt.Errorf("bfs sent %d messages, the reached vertices' degrees sum to %d", sent, want)
		}
	case "tc", "tc-streaming":
		var m, cand int64
		for v := range n {
			nbr := g.Neighbors(v)
			lo, _ := slices.BinarySearch(nbr, v)
			hi, _ := slices.BinarySearch(nbr, v+1)
			m, cand = m+int64(len(nbr)-hi), cand+int64(lo)*int64(len(nbr)-hi)
		}
		var tri, gotCand, total, supersteps int64
		if _, err := fmt.Sscanf(out.Lines[0], "[bsp "+row+"] triangles=%d candidates=%d total-messages=%d supersteps=%d", &tri, &gotCand, &total, &supersteps); err != nil {
			return err
		}
		if gotCand != cand || total != m+cand+tri {
			return fmt.Errorf("%s: %d candidates and %d messages, want Σ lo·hi = %d and m + candidates + triangles = %d + %d + %d",
				row, gotCand, total, cand, m, cand, tri)
		}
	}
	return nil
}

// faults are the boundaries (kill) or supersteps (retry) cell c faults at:
// every one in the full product or on a kernel fixture, else one.
func (m *matrix) faults(t *testing.T, c []int, n int, every bool) []int {
	base := m.baseline(t, c[axRow], c[axGraph], c[axSched])
	steps := len(base.steps)
	// A multi-pass row faults every pass at the step; the first pass bounds it.
	if i := slices.IndexFunc(base.steps[min(1, steps):], func(st obs.StepStats) bool { return st.Step == 0 }); i >= 0 {
		steps = i + 1
	}
	if c[axFault] == 1 {
		steps-- // the last superstep has no boundary
	}
	var ks []int
	for k := range max(steps, 0) {
		ks = append(ks, k)
	}
	if len(ks) > 0 && !every && m.graphs[c[axGraph]].flat.NumVertices() > 128 {
		return ks[(7*n+c[axRow])%len(ks):][:1]
	}
	return ks
}

// cell runs cell c, faulted at k, and compares it with its baseline.
func (m *matrix) cell(t *testing.T, c []int, k int) {
	r, gr := m.rows[c[axRow]], m.graphs[c[axGraph]]
	base := m.baseline(t, c[axRow], c[axGraph], c[axSched])
	g := []*graph.Graph{gr.flat, gr.comp}[c[axRep]]
	w, dir, expand := matrixWorkers[c[axWorkers]], matrixDirs[c[axDir]], c[axBcast] == 1
	opts := func(more ...core.Option) []core.Option {
		return append(more, core.ForceDirection(dir), core.WithExpandBroadcasts(expand),
			func(cfg *core.Config) { cfg.SparseActivation = c[axSched] == 1 })
	}
	// Unlike the baselines, cells carry a report and a metrics sink:
	// attaching them changes nothing.
	sinks := []obs.Sink{obs.NewReport(), obs.NewMetrics(nil)}
	var got outcome
	var err error
	switch c[axFault] {
	case 0:
		got, err = exec(r, g, w, sinks, opts()...)
	case 1:
		plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
		policy := &ckpt.Policy{Dir: t.TempDir(), EveryN: 1 << 30, Hooks: plan.Hooks()}
		killed, kerr := exec(r, g, w, nil, opts(core.WithCheckpoint(policy))...)
		var ie *core.InterruptedError
		if !errors.As(kerr, &ie) || ie.Superstep != k {
			t.Fatalf("kill@%d: want InterruptedError at superstep %d, got %v", k, k, kerr)
		}
		m.reached["a kill at a pull boundary"] = m.reached["a kill at a pull boundary"] || strings.HasPrefix(killed.steps[k].Delivery, "pull")
		m.reached["a kill at a runs boundary of tc"] = m.reached["a kill at a runs boundary of tc"] || r.name == "tc" && killed.steps[k].Delivery == "runs"
		// The boundary holds the superstep's unicast log beside its
		// broadcasts as records, or as per-edge messages when expanded.
		snap, lerr := ckpt.Load(ie.CheckpointPath)
		want := base.steps[k].Sent
		if !expand {
			want -= base.steps[k].FrontierEdges
		}
		if lerr != nil || int64(len(snap.MsgDest)) != want || expand && len(snap.BcastSrc) > 0 {
			t.Fatalf("kill@%d: checkpoint of %d messages and %d broadcast records, want %d messages (expanded %v): %v",
				k, len(snap.MsgDest), len(snap.BcastSrc), want, expand, lerr)
		}
		// Resume at the next worker count under the other broadcast
		// treatment: neither is part of a checkpoint's fingerprint.
		w, expand = matrixWorkers[(c[axWorkers]+1)%3], !expand
		got, err = exec(r, g, w, sinks, opts(core.WithResume(ie.CheckpointPath))...)
	case 2:
		got, err = exec(r, g, w, sinks, opts(func(cfg *core.Config) {
			cfg.Program = newTransientStep(cfg.Program, k, 1)
		}, core.WithRetries(1))...)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.val, got.val) {
		t.Fatalf("answer differs from the baseline's\n  baseline: %v\n  cell:     %v", base.val, got.val)
	}
	if len(got.steps) > len(base.steps) {
		t.Fatalf("%d supersteps, the baseline ran %d", len(got.steps), len(base.steps))
	}
	// A resumed run reports the supersteps after its boundary.
	tail := base.steps[len(base.steps)-len(got.steps):]
	var record []string
	for i, st := range got.steps {
		if logical(st) != logical(tail[i]) {
			t.Fatalf("superstep %d counters %v, the baseline's %v", st.Step, logical(st), logical(tail[i]))
		}
		if retried := c[axFault] == 2 && st.Step == k && st.Active > 0; st.Retries != map[bool]int64{true: 1}[retried] {
			t.Fatalf("superstep %d retried %d times (fault at %d)", st.Step, st.Retries, k)
		}
		if strings.HasPrefix(st.Delivery, "pull") && st.Direction != "pull" || dir == core.DirPush && st.Direction != "push" {
			t.Fatalf("superstep %d delivered by %q on a %q decision", st.Step, st.Delivery, st.Direction)
		}
		// Only a pure-broadcast superstep with a message may pull, and forced
		// pull pulls every one.
		pullable := st.Sent == st.FrontierEdges && st.Sent > 0
		if st.Direction == "pull" && !pullable || dir == core.DirPull && pullable && st.Direction != "pull" {
			t.Fatalf("superstep %d of %d messages (%d broadcast) decided %q", st.Step, st.Sent, st.FrontierEdges, st.Direction)
		}
		// The engine's own decision pulls exactly a pullable superstep whose
		// frontier covers a quarter of the arcs: the threshold is pinned
		// here, not read from the engine, so retuning it fails by name.
		if dense := pullable && st.FrontierEdges*4 >= g.NumEdges(); dir == core.DirAuto && dense != (st.Direction == "pull") {
			t.Fatalf("superstep %d of %d broadcast edges on %d arcs decided %q (pullable %v; pinned threshold 4, the engine's dirGamma %d)",
				st.Step, st.FrontierEdges, g.NumEdges(), st.Direction, pullable, core.DirGamma)
		}
		if expand && st.SentPhysical != st.Sent || st.SentPhysical > st.Sent {
			t.Fatalf("superstep %d: %d physical sends for %d logical (expanded %v)", st.Step, st.SentPhysical, st.Sent, expand)
		}
		record = append(record, st.Direction)
		m.reached["a delivery by "+st.Delivery] = true
		m.reached["a decided pull on "+r.name] = m.reached["a decided pull on "+r.name] || dir == core.DirAuto && strings.HasPrefix(st.Delivery, "pull")
		m.reached["a log whose chunks straddle a block"] = m.reached["a log whose chunks straddle a block"] ||
			r.mk != nil && gr.name == "circulant" && st.Sent-st.FrontierEdges > 3*core.UnitRunsPerBlock
		m.reached["broadcast records fewer than their edges"] = m.reached["broadcast records fewer than their edges"] || st.SentPhysical < st.Sent
		m.reached["a retry of a superstep that gathers"] = m.reached["a retry of a superstep that gathers"] ||
			c[axFault] == 2 && st.Step == k && i > 0 && strings.HasPrefix(got.steps[i-1].Delivery, "pull")
		m.reached["a retry of a superstep that reads runs"] = m.reached["a retry of a superstep that reads runs"] ||
			c[axFault] == 2 && st.Step == k && i > 0 && got.steps[i-1].Delivery == "runs"
	}
	comparePhases(t, base.phases, got.phases)
	key := [3]int{c[axRow], c[axGraph], c[axDir]}
	if want, ok := m.dirs[key]; !ok && len(got.steps) == len(base.steps) {
		m.dirs[key] = record
	} else if ok && !slices.Equal(want[len(want)-len(record):], record) {
		t.Fatalf("decisions %v, the first %s cell's %v", record, matrixAxes[axDir-2][c[axDir]], want)
	}
}

// relabelled runs exact row r on gr's relabelled copy, whose vertex v is
// perm[v]: BFS and SSSP distances and core numbers move with their
// vertices, CC's partition maps onto the copy's, the triangle count stays,
// and the GraphCT twin's per-vertex triangle counts move with their
// vertices and sum to three times the BSP count (Chin et al.'s triad
// invariants).
func relabelled(t *testing.T, r *mrow, gr *mgraph, base outcome) {
	p := r.params(gr.flat)
	if len(gr.perm) > 0 {
		p.Source = gr.perm[p.Source]
	}
	out, err := r.k.BSP(gr.rel, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	was := base.val.(bspalg.Out).Answer
	switch r.name {
	case "cc":
		to, from := map[int64]int64{}, map[int64]int64{}
		for v, l := range was {
			// l must map to l2 alone, and no other label to l2.
			l2 := out.Answer[gr.perm[v]]
			a, seen := to[l]
			if b, taken := from[l2]; seen && a != l2 || taken && b != l {
				t.Fatalf("vertex %d's component does not map onto the relabelled copy's", v)
			}
			to[l], from[l2] = l2, l
		}
	case "tc":
		a, b := graphct.ClusteringCoefficients(gr.flat, nil), graphct.ClusteringCoefficients(gr.rel, nil)
		var sum int64
		for v, x := range a.TrianglesPerVertex {
			if sum += x; b.TrianglesPerVertex[gr.perm[v]] != x {
				t.Fatalf("vertex %d closes %d triangles, as vertex %d %d", v, x, gr.perm[v], b.TrianglesPerVertex[gr.perm[v]])
			}
		}
		if !slices.Equal(out.Answer, was) || sum != 3*was[0] {
			t.Fatalf("%v triangles, relabelled %v; per-vertex counts sum to %d", was, out.Answer, sum)
		}
	default:
		for v, x := range was {
			if y := out.Answer[gr.perm[v]]; y != x {
				t.Fatalf("vertex %d: %d, as vertex %d of the relabelled copy %d", v, x, gr.perm[v], y)
			}
		}
	}
}

// TestEngineMatrix runs the matrix, each cell a subtest named
// row/graph/axes with the fault last ("kill@k", "retry@k"). Every cell
// gives the baseline's answer, per-superstep counters (a resumed run those
// after its boundary) and charged profile; a retried one retries superstep
// k once if it computes; a killed one's checkpoint holds the boundary's
// broadcasts as records or, expanded, as messages. The cells of one direction mode decide alike, a
// superstep delivered by a pull decided pull, a forced push decides push,
// and the engine's own decision pulls exactly the pure-broadcast supersteps
// whose frontier covers a quarter of the arcs. Exact rows also run on a
// relabelled copy (row/graph/relabel).
//
// Tier-1 runs a deterministic sample (see sample): every pair of factor
// values, every axis value with every (row, graph) pair, and a kernel
// fixture's faults at every boundary and superstep. GRAPHXMT_MATRIX=full runs the product. The
// whole sample must reach every delivery kind, a log whose chunks straddle
// a block, broadcast records fewer than their edges, a kill at a pull
// boundary and at a runs boundary of tc, a retry of a superstep that
// gathers and of one that reads runs, and a decided pull on bfs, cc, kcore
// and pagerank.
func TestEngineMatrix(t *testing.T) {
	m := &matrix{rows: matrixRows(), graphs: matrixGraphs(t), base: map[[3]int]outcome{}, dirs: map[[3]int][]string{},
		reached: map[string]bool{}}
	sizes := []int{len(m.rows), len(m.graphs)}
	for _, a := range matrixAxes {
		sizes = append(sizes, len(a))
	}
	ok := func(f1, l1, f2, l2 int) bool {
		switch {
		case f1 == axRow && f2 == axGraph:
			return m.graphs[l2].runs(m.rows[l1])
		case f1 == axRow && f2 == axFault:
			return l2 != 1 || m.rows[l1].k == nil || !m.rows[l1].k.MultiPass
		case f1 == axGraph && f2 == axDir:
			return l2 == 0 || !m.graphs[l1].pushOnly
		}
		return true
	}
	full := os.Getenv("GRAPHXMT_MATRIX") == "full"
	var cells [][]int
	if full {
		cells = product(sizes, ok)
	} else {
		// A decided pull on the rows that must pull, records and all.
		rmat := slices.IndexFunc(m.graphs, func(g *mgraph) bool { return g.name == "rmat11" })
		var seeds [][]int
		for _, name := range []string{"bfs", "cc", "kcore", "pagerank"} {
			seeds = append(seeds, []int{slices.IndexFunc(m.rows, func(r *mrow) bool { return r.name == name }), rmat, -1, -1, 1, 0, 0, 0})
		}
		// The log rows' lookaside against the parallel sort.
		ring := slices.IndexFunc(m.graphs, func(g *mgraph) bool { return g.name == "ring" })
		for _, name := range []string{"log", "log-sum"} {
			seeds = append(seeds, []int{slices.IndexFunc(m.rows, func(r *mrow) bool { return r.name == name }), ring, 1, -1, -1, 1, -1, 0})
		}
		// TC's wedge superstep delivered by runs, killed at every boundary at
		// eight workers and resumed at one, and retried at every superstep at
		// one worker: rmat7 is small enough to fault everywhere.
		tc, rmat7 := slices.IndexFunc(m.rows, func(r *mrow) bool { return r.name == "tc" }), slices.IndexFunc(m.graphs, func(g *mgraph) bool { return g.name == "rmat7" })
		seeds = append(seeds, []int{tc, rmat7, 2, 0, 0, 0, 0, 1}, []int{tc, rmat7, 0, 0, 1, 0, 1, 2})
		cells = sample(sizes, ok, seeds)
	}
	slices.SortStableFunc(cells, func(a, b []int) int {
		return cmp.Compare(a[axRow]*len(m.graphs)+a[axGraph], b[axRow]*len(m.graphs)+b[axGraph])
	})
	for i, j := 0, 0; i < len(cells); i = j {
		for j = i; j < len(cells) && cells[j][axRow] == cells[i][axRow] && cells[j][axGraph] == cells[i][axGraph]; j++ {
		}
		group, r, gr := cells[i:j], m.rows[cells[i][axRow]], m.graphs[cells[i][axGraph]]
		m.groups++
		t.Run(r.name+"/"+gr.name, func(t *testing.T) {
			m.began++
			for n, c := range group {
				var names []string
				for f, l := range c[axWorkers:axFault] {
					names = append(names, matrixAxes[f][l])
				}
				ks := []int{-1}
				if c[axFault] > 0 {
					if ks = m.faults(t, c, n, full); ks == nil {
						c, ks = append(slices.Clone(c[:axFault]), 0), []int{-1} // nothing to fault
					}
				}
				for _, k := range ks {
					name := strings.Join(append(names, matrixAxes[axFault-2][c[axFault]]), ",")
					if k >= 0 {
						name += fmt.Sprintf("@%d", k)
					}
					m.planned++
					t.Run(name, func(t *testing.T) {
						m.ran++
						m.cell(t, c, k)
					})
				}
			}
			if r.k != nil && r.k.Exact && !r.batch && r.name != "diameter" && gr.rel != nil {
				// The double sweep's bound depends on how it breaks ties
				// between vertex IDs.
				t.Run("relabel", func(t *testing.T) { relabelled(t, r, gr, m.baseline(t, cells[i][axRow], cells[i][axGraph], 0)) })
			}
		})
	}
	if full || m.began < m.groups || m.ran < m.planned {
		return
	}
	want := []string{"a log whose chunks straddle a block", "broadcast records fewer than their edges",
		"a kill at a pull boundary", "a retry of a superstep that gathers",
		"a kill at a runs boundary of tc", "a retry of a superstep that reads runs"}
	for _, d := range []string{"lookaside", "csr", "csr-par", "pull", "pull+saturated", "runs"} {
		want = append(want, "a delivery by "+d)
	}
	for _, name := range []string{"bfs", "cc", "kcore", "pagerank"} {
		want = append(want, "a decided pull on "+name)
	}
	for _, w := range want {
		if !m.reached[w] {
			t.Errorf("the sample never reaches %s", w)
		}
	}
}
