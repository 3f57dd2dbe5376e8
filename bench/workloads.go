package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graph500"
	"graphxmt/internal/graphct"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// workloadNames lists the workloads in run order. Each is built so that a
// layer likely to be optimised does most of the work in one and little in
// another; README.md gives the reason for each.
var workloadNames = []string{"rmat_traverse", "mmap_compressed", "pagerank_ckpt", "grid_relay", "table1_models"}

// newWorkload returns the named workload and how many times its set-up
// runs (setup_s is the median).
func newWorkload(name string, sz sizes) (workload, int, error) {
	switch name {
	case "rmat_traverse":
		return &traverse{}, sz.fixtureReps, nil
	case "mmap_compressed":
		return &traverse{compressed: true}, sz.fixtureReps, nil
	case "pagerank_ckpt":
		return &pagerankCkpt{}, sz.fixtureReps, nil
	case "grid_relay":
		return &gridRelay{}, sz.smallReps, nil
	case "table1_models":
		return &table1{}, sz.smallReps, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// sizes fixes every input size. They are constants of the benchmark, not
// options: comparing two commits needs identical inputs, so only session
// counts follow -seconds.
type sizes struct {
	fixtureScale int // RMAT scale of the shared large graph (edge factor 16)
	fixtureReps  int // set-ups per run on the workloads that build it
	smallReps    int // set-ups per run on the others, whose set-up takes milliseconds
	table1Scale  int
	pathN        int64
	gridSide     int64
	prRounds     int
	minSessions  int
}

// sizesFor returns the benchmark's sizes, or with quick the smoke test's.
func sizesFor(quick bool) sizes {
	if quick {
		return sizes{fixtureScale: 10, fixtureReps: 1, smallReps: 1, table1Scale: 8,
			pathN: 1 << 10, gridSide: 32, prRounds: 10, minSessions: 2}
	}
	return sizes{fixtureScale: 18, fixtureReps: 3, smallReps: 15, table1Scale: 13,
		pathN: 1 << 16, gridSide: 256, prRounds: 10, minSessions: 3}
}

const edgeFactor = 16

// workload is one fixed session script plus what it needs before and after.
type workload interface {
	// setup does everything a user pays before the first query, from the
	// seed alone. It is called repeatedly and keeps only its last products.
	setup(c *ctx) error
	// oracle, untimed, builds the expected outputs, checks that loaded
	// fixtures equal what was built, runs the layer probes when probes is
	// set, and drops whatever only set-up needed so that peak RSS measures
	// the sessions.
	oracle(c *ctx, probes bool) error
	// session is the timed script. It stores its outputs for check.
	session(c *ctx, t *tracer) error
	// check verifies the last session's outputs after its timer stopped,
	// and leaves their fingerprints in c.hashes.
	check(c *ctx)
}

// ctx carries one run's inputs and collects what workloads report.
type ctx struct {
	seed uint64
	sz   sizes
	dir  string
	// block is the session block in progress: "wN", "w1" or "traced";
	// session counts the sessions started so far.
	block   string
	session int
	// steps holds set-up step durations, keyed by per-layer metric name.
	steps map[string][]float64
	// vals holds per-session values reported by workloads, keyed by
	// per-layer metric name (or a helper name metrics.go combines).
	vals                 map[string][]float64
	checks, failedChecks int
	failures             []string
	// hashes fingerprints the outputs of the last session checked.
	hashes map[string]string
}

// step times one set-up step under its per-layer metric name.
func (c *ctx) step(name string, f func()) {
	t0 := time.Now()
	f()
	c.steps[name] = append(c.steps[name], time.Since(t0).Seconds())
}

// put reports a value from a traced session, where per-layer metrics come from.
func (c *ctx) put(name string, v float64) {
	if c.block == "traced" {
		c.vals[name] = append(c.vals[name], v)
	}
}

// putUntraced reports a stopwatch reading from the untraced w=N sessions,
// for the metrics that tracing itself would distort.
func (c *ctx) putUntraced(name string, v float64) {
	if c.block == "wN" {
		c.vals[name] = append(c.vals[name], v)
	}
}

// expect counts one output check.
func (c *ctx) expect(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failedChecks++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// fixture is the shared large input: an RMAT graph built from the seed,
// optionally compressed, written to disk in the formats a workload loads.
type fixture struct {
	g        *graph.Graph
	binPath  string
	csr2Path string
}

func buildFixture(c *ctx, binary, csr2 bool) (*fixture, error) {
	var (
		edges []graph.Edge
		n     int64
		err   error
		fx    = &fixture{}
	)
	c.step("gen.rmat_s", func() {
		edges, n, err = gen.RMATEdges(gen.RMATConfig{Scale: c.sz.fixtureScale, EdgeFactor: edgeFactor, Seed: c.seed})
	})
	if err != nil {
		return nil, err
	}
	c.vals["raw_edges"] = []float64{float64(len(edges))}
	c.step("graph.build_s", func() {
		fx.g, err = graph.Build(n, edges, graph.BuildOptions{SortAdjacency: true})
	})
	if err != nil {
		return nil, err
	}
	if binary {
		fx.binPath = filepath.Join(c.dir, "fixture.gxmt")
		c.step("graphio.write_binary_s", func() { err = graphio.WriteBinaryFile(fx.binPath, fx.g) })
		if err != nil {
			return nil, err
		}
	}
	if csr2 {
		var cg *graph.Graph
		c.step("graph.compress_s", func() { cg, err = graph.Compress(fx.g) })
		if err != nil {
			return nil, err
		}
		fx.csr2Path = filepath.Join(c.dir, "fixture.csr2")
		c.step("graphio.write_csr2_s", func() { err = graphio.WriteCSR2File(fx.csr2Path, cg) })
		if err != nil {
			return nil, err
		}
		c.vals["graph.compressed_bytes_per_arc"] = []float64{
			float64(len(cg.CompressedBlob())+8*len(cg.CompressedOffsets())) / float64(cg.NumEdges())}
	}
	return fx, nil
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// traverse is rmat_traverse (flat graph, loaded once in set-up) and
// mmap_compressed (the same queries on the compressed rep, mmap'd and
// unmapped inside every session — the CLI's cold-query path).
type traverse struct {
	compressed bool
	fx         *fixture
	g          *graph.Graph // flat graph resident across sessions; nil when compressed
	keys       []int64      // the batch's 64 lanes, as Graph500 samples search keys
	roots      []int64      // the single-source BFS roots
	refRoot    [][]int64    // reference distances from roots
	refLane    [][]int64    // reference distances from keys[0:4]
	refCC      []int64
	bfsEdges   float64 // undirected edges the two reference BFS trees span

	out struct {
		bfs   [2][]int64
		cc    []int64
		multi *bspalg.MultiResult
	}
	hash     map[string]string
	maskHash string
}

func (w *traverse) setup(c *ctx) error {
	w.fx, w.g = nil, nil
	fx, err := buildFixture(c, !w.compressed, w.compressed)
	if err != nil {
		return err
	}
	if !w.compressed {
		c.step("graphio.read_binary_s", func() { w.g, err = graphio.LoadFile(fx.binPath) })
	}
	w.fx = fx
	return err
}

func (w *traverse) oracle(c *ctx, probes bool) error {
	g := w.fx.g
	w.keys = graph500.SampleKeys(g, batch.MaxLanes, c.seed)
	w.refCC = graph.ReferenceComponents(g)
	// BFS time from a random key swings 79-176 ms with how soon its
	// frontier turns the sweep to pull, and a key in a two-vertex component
	// costs nothing, so two random roots would let the seed decide the
	// session time. The single-source roots are the two highest-degree keys
	// (80-105 ms); the batch keeps all 64 keys, small components included.
	w.roots = highestDegree(g, w.keys, 2)
	if len(w.keys) < 4 || len(w.roots) < 2 {
		return fmt.Errorf("only %d usable search keys", len(w.keys))
	}
	reference := func(root int64) ([]int64, error) {
		ref := graph.ReferenceBFS(g, root)
		if err := graph500.Validate(g, root, ref, graph500.DeriveParents(g, root, ref)); err != nil {
			return nil, fmt.Errorf("reference BFS from %d fails Graph500 validation: %w", root, err)
		}
		return ref, nil
	}
	for _, root := range w.roots {
		ref, err := reference(root)
		if err != nil {
			return err
		}
		w.refRoot = append(w.refRoot, ref)
		var arcs int64
		for v, d := range ref {
			if d >= 0 {
				arcs += g.Degree(int64(v))
			}
		}
		w.bfsEdges += float64(arcs) / 2
	}
	for _, root := range w.keys[:4] {
		ref, err := reference(root)
		if err != nil {
			return err
		}
		w.refLane = append(w.refLane, ref)
	}

	// What the sessions will read must be the graph that was built.
	want := graphHash(g)
	if w.compressed {
		mg, closer, err := graphio.OpenCSR2(w.fx.csr2Path)
		if err != nil {
			return err
		}
		c.expect(graphHash(mg) == want, "mmap'd CSR2 fixture differs from the built graph")
		if probes {
			flat, flatSum := scanProbe(g)
			dec, decSum := scanProbe(mg)
			c.expect(flatSum == decSum, "decoded adjacency sum %d != flat %d", decSum, flatSum)
			c.vals["graph.flat_scan_ns_per_arc"] = []float64{flat}
			c.vals["graph.decode_ns_per_arc"] = []float64{dec}
		}
		if err := closer.Close(); err != nil {
			return err
		}
		c.vals["graphio.bytes_csr2"] = []float64{fileSize(w.fx.csr2Path)}
	} else {
		c.expect(graphHash(w.g) == want, "loaded binary fixture differs from the built graph")
		if probes {
			flat, _ := scanProbe(w.g)
			c.vals["graph.flat_scan_ns_per_arc"] = []float64{flat}
		}
		c.vals["graphio.bytes_flat"] = []float64{fileSize(w.fx.binPath)}
	}
	w.fx.g = nil
	return nil
}

// scanProbe times one full sweep of every adjacency list through
// NeighborDecoder — varint decode on a compressed graph, a slice walk on a
// flat one — and returns ns per arc (median of three) and the neighbour sum.
func scanProbe(g *graph.Graph) (nsPerArc float64, sum int64) {
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		sum = 0
		t0 := time.Now()
		for v := int64(0); v < g.NumVertices(); v++ {
			d := g.NeighborDecoder(v)
			for u, ok := d.Next(); ok; u, ok = d.Next() {
				sum += u
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(g.NumEdges()))
	}
	return summarize(ns).Median, sum
}

func (w *traverse) session(c *ctx, t *tracer) (err error) {
	g := w.g
	if w.compressed {
		end := t.begin("graphio", "graphio.open_csr2_s")
		mg, closer, oerr := graphio.OpenCSR2(w.fx.csr2Path)
		end()
		if oerr != nil {
			return oerr
		}
		defer func() {
			end := t.begin("graphio", "graphio.close_csr2_s")
			cerr := closer.Close()
			end()
			if err == nil {
				err = cerr
			}
		}()
		g = mg
	}
	opts := t.engineOpts()
	for i := range w.out.bfs {
		end := t.begin("bspalg", "bspalg.bfs_s")
		r, err := bspalg.BFS(g, w.roots[i], nil, opts...)
		end()
		if err != nil {
			return err
		}
		w.out.bfs[i] = r.Dist
	}
	end := t.begin("bspalg", "bspalg.cc_s")
	cc, err := bspalg.ConnectedComponents(g, nil, opts...)
	end()
	if err != nil {
		return err
	}
	w.out.cc = cc.Labels

	end = t.begin("batch", "batch.plan_s")
	plan, err := batch.NewPlan(w.keys, g.NumVertices())
	end()
	if err != nil {
		return err
	}
	end = t.begin("bspalg", "bspalg.msbfs_s")
	w.out.multi, err = bspalg.MultiBFS(g, plan, nil, opts...)
	end()
	return err
}

func (w *traverse) check(c *ctx) {
	for i, d := range w.out.bfs {
		c.expect(slices.Equal(d, w.refRoot[i]), "BFS from %d differs from the reference", w.roots[i])
	}
	c.expect(samePartition(w.out.cc, w.refCC), "connected components differ from the reference partition")
	m := w.out.multi
	for lane := range w.refLane {
		c.expect(slices.Equal(m.Dist(lane), w.refLane[lane]), "MS-BFS lane %d differs from its single-source BFS", lane)
	}
	masks := hashInt64s(m.Masks)
	if w.hash == nil {
		// Unpacking all 64 lanes costs more than the other checks together,
		// so the full fingerprint is taken once; later sessions must repeat
		// the reach masks, and lanes 0-3 are compared exactly above.
		h := newHasher()
		for lane := range m.Plan.Sources {
			h.int64s(m.Dist(lane))
		}
		w.maskHash = masks
		w.hash = map[string]string{
			"bfs0": hashInt64s(w.out.bfs[0]), "bfs1": hashInt64s(w.out.bfs[1]),
			"cc": hashInt64s(w.out.cc), "msbfs": h.sum(),
		}
	}
	c.expect(masks == w.maskHash, "MS-BFS reach masks changed between sessions")
	c.hashes = w.hash

	lanes := float64(m.Plan.Occupancy())
	var edges int64
	for _, s := range m.MessagesPerStep {
		edges += s
	}
	c.put("batch.lanes", lanes)
	c.put("batch.edges_per_query", float64(edges)/lanes)
	c.put("bfs_edges", w.bfsEdges)
}

// pagerankCkpt is the dense every-vertex-active sweep through the
// combining delivery path, run plain, then with checkpoint writes beside
// the compute, then resumed from the mid-run snapshot.
type pagerankCkpt struct {
	fx  *fixture
	g   *graph.Graph
	ref []float64

	ckptDir string
	out     struct {
		plain, ckpted, resumed []float64
		files                  []os.DirEntry
		mid                    *ckpt.Snapshot
	}
}

func (w *pagerankCkpt) setup(c *ctx) error {
	w.fx, w.g = nil, nil
	fx, err := buildFixture(c, true, false)
	if err != nil {
		return err
	}
	c.step("graphio.read_binary_s", func() { w.g, err = graphio.LoadFile(fx.binPath) })
	w.fx = fx
	return err
}

func (w *pagerankCkpt) oracle(c *ctx, probes bool) error {
	c.expect(graphHash(w.g) == graphHash(w.fx.g), "loaded binary fixture differs from the built graph")
	c.vals["graphio.bytes_flat"] = []float64{fileSize(w.fx.binPath)}
	w.fx.g = nil
	w.ref = referencePageRank(w.g, c.sz.prRounds)
	w.ckptDir = filepath.Join(c.dir, "ckpt")
	return nil
}

// referencePageRank is the naive floating-point power iteration the
// engine's fixed-point PageRank is checked against: rank = (1-d)/N +
// d * sum over neighbours of rank/degree, dangling mass not redistributed.
// An isolated vertex never receives a message, so the engine never wakes it
// and it keeps its initial 1/N; the reference does the same.
func referencePageRank(g *graph.Graph, rounds int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for r := 0; r < rounds; r++ {
		for v := int64(0); v < n; v++ {
			if g.Degree(v) == 0 {
				next[v] = rank[v]
				continue
			}
			var sum float64
			for _, u := range g.Neighbors(v) {
				sum += rank[u] / float64(g.Degree(u))
			}
			next[v] = 0.15/float64(n) + 0.85*sum
		}
		rank, next = next, rank
	}
	return rank
}

func (w *pagerankCkpt) session(c *ctx, t *tracer) error {
	opts := t.engineOpts()
	rounds := c.sz.prRounds

	end := t.begin("bspalg", "bspalg.pagerank_s")
	plain, err := bspalg.PageRank(w.g, rounds, nil, opts...)
	end()
	if err != nil {
		return err
	}
	w.out.plain = plain.Rank

	end = t.begin("bspalg", "bspalg.pagerank_ckpt")
	ckpted, err := bspalg.PageRank(w.g, rounds, nil,
		append(opts, core.WithCheckpoint(&ckpt.Policy{Dir: w.ckptDir, EveryN: 2}))...)
	end()
	if err != nil {
		return err
	}
	w.out.ckpted = ckpted.Rank

	// The mid-run snapshot: what a run killed half-way would resume from.
	w.out.files, err = os.ReadDir(w.ckptDir)
	if err != nil {
		return err
	}
	if len(w.out.files) == 0 {
		return fmt.Errorf("checkpointed run wrote no snapshot to %s", w.ckptDir)
	}
	mid := filepath.Join(w.ckptDir, w.out.files[len(w.out.files)/2].Name())
	end = t.begin("ckpt", "ckpt.verify_s")
	err = ckpt.Verify(mid)
	end()
	if err != nil {
		return err
	}
	end = t.begin("ckpt", "ckpt.load_s")
	w.out.mid, err = ckpt.Load(mid)
	end()
	if err != nil {
		return err
	}
	end = t.begin("ckpt", "ckpt.resume_s")
	resumed, err := bspalg.PageRank(w.g, rounds, nil, append(opts, core.WithResume(mid))...)
	end()
	if err != nil {
		return err
	}
	w.out.resumed = resumed.Rank
	return nil
}

func (w *pagerankCkpt) check(c *ctx) {
	// The engine's ranks are 10^-12 fixed point and truncate once per
	// message, so a hub is off by about its degree x 10^-12 per round (3e-5 of its rank at scale 18); a wrong
	// damping factor or a missing round is off by percents.
	worst := 0.0
	for v, r := range w.out.plain {
		worst = max(worst, math.Abs(r-w.ref[v])/(w.ref[v]+1e-5))
	}
	c.expect(worst < 1e-3, "PageRank is a relative %g away from the floating-point reference", worst)
	c.expect(slices.Equal(w.out.ckpted, w.out.plain), "checkpointed PageRank differs from the plain run")
	c.expect(slices.Equal(w.out.resumed, w.out.plain), "resumed PageRank is not bit-identical to the uninterrupted run")
	c.expect(w.out.mid != nil && w.out.mid.FP.Vertices == w.g.NumVertices(),
		"loaded snapshot does not describe this graph")

	var bytes float64
	for _, f := range w.out.files {
		bytes += fileSize(filepath.Join(w.ckptDir, f.Name()))
	}
	c.put("ckpt.snapshots", float64(len(w.out.files)))
	c.put("ckpt.bytes_per_snapshot", bytes/float64(len(w.out.files)))
	c.put("ckpt_bytes", bytes)
	h := newHasher()
	for _, r := range w.out.plain {
		h.uint64(math.Float64bits(r))
	}
	c.hashes = map[string]string{"pagerank": h.sum()}
	// The next session must start from an empty checkpoint directory.
	if err := os.RemoveAll(w.ckptDir); err != nil {
		c.expect(false, "removing %s: %v", w.ckptDir, err)
	}
}

// gridRelay uses the engine the opposite way to the RMAT workloads: 10^3
// to 10^5 supersteps with a handful of active vertices each, where barrier,
// worklist and sink cost per superstep are everything and edges nothing.
type gridRelay struct {
	path, grid       *graph.Graph
	ccGrid           *graph.Graph
	src              int64
	refPath, refGrid []int64

	out struct {
		relayNil, relaySinks *core.Result
		gridBFS, gridCC      []int64
	}
}

func (w *gridRelay) setup(c *ctx) error {
	w.path = gen.Path(c.sz.pathN)
	w.grid = gen.Grid(c.sz.gridSide, c.sz.gridSide)
	// Label propagation on the full grid sends 67M messages and takes over
	// a second: neither near-empty supersteps nor a session under a second.
	// At half the side it is an eighth of that and still 255 supersteps.
	w.ccGrid = gen.Grid(c.sz.gridSide/2, c.sz.gridSide/2)
	return nil
}

func (w *gridRelay) oracle(c *ctx, probes bool) error {
	// From the middle, so the wave runs pathN/2 supersteps in each direction.
	w.src = c.sz.pathN / 2
	w.refPath = graph.ReferenceBFS(w.path, w.src)
	w.refGrid = graph.ReferenceBFS(w.grid, 0)
	return nil
}

func (w *gridRelay) session(c *ctx, t *tracer) error {
	relay := func(name string, sink obs.Sink) (*core.Result, error) {
		t0 := time.Now()
		end := t.begin("core", "core."+name)
		res, err := core.Run(core.Config{
			Graph: w.path, Program: bspalg.BFSProgram{Source: w.src},
			SparseActivation: true, MaxSupersteps: -1, Obs: sink,
		})
		end()
		c.putUntraced(name+"_s", time.Since(t0).Seconds())
		return res, err
	}
	var err error
	// The same relay with no sink and under the two sinks a live run has
	// attached; untraced, the difference is the sink cost per superstep.
	if w.out.relayNil, err = relay("relay_nil", t.obsSink()); err != nil {
		return err
	}
	if w.out.relaySinks, err = relay("relay_sinks", obs.Tee(obs.NewReport(), obs.NewMetrics(nil), t.obsSink())); err != nil {
		return err
	}

	opts := append(t.engineOpts(), core.WithMaxSupersteps(-1))
	// The paper's schedule: every superstep scans every vertex.
	end := t.begin("bspalg", "bspalg.bfs_s")
	bfs, err := bspalg.BFS(w.grid, 0, nil, opts...)
	end()
	if err != nil {
		return err
	}
	w.out.gridBFS = bfs.Dist
	end = t.begin("bspalg", "bspalg.cc_s")
	cc, err := bspalg.ConnectedComponents(w.ccGrid, nil,
		append(opts, func(cfg *core.Config) { cfg.SparseActivation = true })...)
	end()
	if err != nil {
		return err
	}
	w.out.gridCC = cc.Labels
	return nil
}

func (w *gridRelay) check(c *ctx) {
	c.expect(slices.Equal(w.out.relayNil.States, w.refPath), "path relay (nil sink) differs from the reference BFS")
	c.expect(slices.Equal(w.out.relaySinks.States, w.refPath), "path relay (sinks) differs from the reference BFS")
	c.expect(slices.Equal(w.out.gridBFS, w.refGrid), "grid BFS differs from the reference")
	c.expect(samePartition(w.out.gridCC, make([]int64, len(w.out.gridCC))), "grid is not one component")
	c.putUntraced("relay_supersteps", float64(w.out.relayNil.Supersteps))
	c.hashes = map[string]string{
		"relay": hashInt64s(w.out.relayNil.States), "grid_bfs": hashInt64s(w.out.gridBFS), "grid_cc": hashInt64s(w.out.gridCC),
	}
}

// table1 is the paper's own pipeline as xmtbench users pay for it:
// generate, build, run each kernel in both programming models with a work
// recorder attached, and evaluate the recorded profiles on the machine
// model. BSP triangle counting is the only per-edge-unicast,
// sort-by-destination, no-broadcast load in the benchmark. Pinned at scale
// 13: BSP TC at scale 14 swung 0.83-1.75 s run to run on the sizing host.
type table1 struct {
	g        *graph.Graph
	src      int64
	refCC    []int64
	refDist  []int64
	refTri   int64
	model    machine.Model
	simProcs int

	out struct {
		ctCC, bspCC   []int64
		ctBFS, bspBFS []int64
		ctTri, bspTri int64
		sim           [6]float64 // simulated seconds at simProcs: ct cc/bfs/tc, bsp cc/bfs/tc
		phases        int
	}
}

func (w *table1) generate(c *ctx, t *tracer) (*graph.Graph, error) {
	end := t.begin("gen", "gen.rmat_s")
	edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: c.sz.table1Scale, EdgeFactor: edgeFactor, Seed: c.seed})
	end()
	if err != nil {
		return nil, err
	}
	c.put("raw_edges", float64(len(edges)))
	end = t.begin("graph", "graph.build_s")
	g, err := graph.Build(n, edges, graph.BuildOptions{SortAdjacency: true})
	end()
	return g, err
}

// setup builds the graph once more than the sessions do: the oracle needs
// it before the first session, and it is what an xmtbench user waits for
// before the first kernel starts.
func (w *table1) setup(c *ctx) (err error) {
	w.g, err = w.generate(c, nil)
	return err
}

func (w *table1) oracle(c *ctx, probes bool) error {
	w.refCC = graph.ReferenceComponents(w.g)
	roots := highestDegree(w.g, graph500.SampleKeys(w.g, batch.MaxLanes, c.seed), 1)
	if len(roots) == 0 {
		return fmt.Errorf("no usable search key")
	}
	w.src = roots[0]
	w.refDist = graph.ReferenceBFS(w.g, w.src)
	w.refTri = graph.ReferenceTriangles(w.g)
	w.model = machine.NewAnalytic(machine.DefaultConfig())
	w.simProcs = 128
	return nil
}

func (w *table1) session(c *ctx, t *tracer) error {
	g, err := w.generate(c, t)
	if err != nil {
		return err
	}
	opts := t.engineOpts()
	var recs [6]*trace.Recorder
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}

	// GraphCT shared-memory kernels. Traced, a recorder observer turns
	// their phases into spans under the benchmark's own.
	ct := func(name string, rec *trace.Recorder, kernel func()) {
		var ro *obs.RecorderObserver
		if t != nil {
			ro = obs.NewRecorderObserver(t.obsSink(), g.NumVertices(), g.NumEdges())
			rec.SetObserver(ro)
		}
		end := t.begin("graphct", name)
		kernel()
		if ro != nil {
			ro.Finish()
		}
		end()
	}
	ct("graphct.cc_s", recs[0], func() { w.out.ctCC = graphct.ConnectedComponents(g, recs[0]).Labels })
	ct("graphct.bfs_s", recs[1], func() { w.out.ctBFS = graphct.BFS(g, w.src, recs[1]).Dist })
	ct("graphct.tc_s", recs[2], func() { w.out.ctTri = graphct.Triangles(g, recs[2]).Count })

	// The BSP twins, once recording the work profile the machine model
	// needs and once with a nil recorder: the difference is what recording
	// costs. Whichever goes first also pays for growing the heap to hold
	// the wedge messages (13% of its time), so the order alternates from
	// session to session and the metric pools both orders.
	bsp := func(suffix string, rec func(i int) *trace.Recorder) error {
		end := t.begin("bspalg", "bspalg.cc"+suffix)
		cc, err := bspalg.ConnectedComponents(g, rec(3), opts...)
		end()
		if err != nil {
			return err
		}
		end = t.begin("bspalg", "bspalg.bfs"+suffix)
		bfs, err := bspalg.BFS(g, w.src, rec(4), opts...)
		end()
		if err != nil {
			return err
		}
		end = t.begin("bspalg", "bspalg.tc"+suffix)
		tc, err := bspalg.Triangles(g, rec(5), opts...)
		end()
		if err != nil {
			return err
		}
		w.out.bspCC, w.out.bspBFS, w.out.bspTri = cc.Labels, bfs.Dist, tc.Count
		return nil
	}
	recorded := func() error { return bsp("_s", func(i int) *trace.Recorder { return recs[i] }) }
	unrecorded := func() error { return bsp("_norec", func(int) *trace.Recorder { return nil }) }
	first, second := unrecorded, recorded
	if c.session%2 == 1 {
		first, second = recorded, unrecorded
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}

	end := t.begin("machine", "machine.eval_s")
	w.out.phases = 0
	for i, rec := range recs {
		phases := rec.Phases()
		w.out.phases += len(phases)
		for _, p := range machine.ProcSweep(w.simProcs) {
			w.out.sim[i] = machine.Seconds(w.model, phases, p) // the sweep ends at simProcs
		}
	}
	end()
	return nil
}

func (w *table1) check(c *ctx) {
	c.expect(samePartition(w.out.ctCC, w.refCC), "GraphCT components differ from the reference partition")
	c.expect(samePartition(w.out.bspCC, w.refCC), "BSP components differ from the reference partition")
	c.expect(slices.Equal(w.out.ctBFS, w.refDist), "GraphCT BFS differs from the reference")
	c.expect(slices.Equal(w.out.bspBFS, w.refDist), "BSP BFS differs from the reference")
	c.expect(w.out.ctTri == w.refTri, "GraphCT counts %d triangles, reference %d", w.out.ctTri, w.refTri)
	c.expect(w.out.bspTri == w.refTri, "BSP counts %d triangles, reference %d", w.out.bspTri, w.refTri)
	sim := w.out.sim
	c.expect(sim[0] > 0 && sim[1] > 0 && sim[2] > 0, "machine model returned a non-positive GraphCT time %v", sim[:3])
	c.put("trace.phases", float64(w.out.phases))
	c.put("machine.sim_ratio_cc", sim[3]/sim[0])
	c.put("machine.sim_ratio_bfs", sim[4]/sim[1])
	c.put("machine.sim_ratio_tc", sim[5]/sim[2])
	c.put("machine.sim_bsp_tc_s", sim[5])
	c.hashes = map[string]string{
		"cc": hashInt64s(w.out.bspCC), "bfs": hashInt64s(w.out.bspBFS), "triangles": fmt.Sprint(w.out.bspTri),
	}
}
