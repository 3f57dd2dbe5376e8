package bspalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/batch"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/par"
)

// noTwin names the BSP rows without a GraphCT twin, and why.
var noTwin = map[string]string{
	"reach":        "GraphCT has no batched multi-source search",
	"tc-streaming": "an evaluator of the tc row's program, whose twin Table I pairs it with",
	"mis":          "GraphCT has no independent-set kernel",
}

// kernelRefs holds each row's naive reference: a short, obviously right
// computation of what the row's primary runner (BSP if it has one, else
// the twin) must report. A reference returns what is wrong with out.
var kernelRefs = map[string]func(g *graph.Graph, p Params, out Out) error{
	"cc": func(g *graph.Graph, _ Params, out Out) error {
		want := graph.ReferenceComponents(g)
		return check(out, want, fmt.Sprintf("[bsp cc] %d components in ", graph.CountComponents(want)))
	},
	"bfs": func(g *graph.Graph, p Params, out Out) error {
		if p.Plan == nil {
			want := graph.ReferenceBFS(g, p.Source)
			return check(out, want, fmt.Sprintf("[bsp bfs] source=%d ", p.Source), fmt.Sprintf(" reached=%d\n", reached(want)))
		}
		var want []int64
		var lines []string
		for _, s := range p.Plan.Sources {
			d := graph.ReferenceBFS(g, s)
			want = append(want, d...)
			lines = append(lines, fmt.Sprintf("[bsp bfs] source=%d ", s), fmt.Sprintf(" reached=%d\n", reached(d)))
		}
		if p.Batch {
			lines = []string{fmt.Sprintf("[bsp multibfs] lanes=%d ", len(p.Plan.Sources)), fmt.Sprintf(" reached(sum over lanes)=%d\n", reached(want))}
		}
		return check(out, want, lines...)
	},
	"reach": func(g *graph.Graph, p Params, out Out) error {
		want := make([]int64, g.NumVertices())
		for lane, s := range p.Plan.Sources {
			for v, d := range graph.ReferenceBFS(g, s) {
				if d >= 0 {
					want[v] |= 1 << lane
				}
			}
		}
		var sum int64
		for _, m := range want {
			for ; m != 0; m &= m - 1 {
				sum++
			}
		}
		return check(out, want, fmt.Sprintf("[bsp multireach] lanes=%d ", len(p.Plan.Sources)), fmt.Sprintf(" reached(sum over lanes)=%d\n", sum))
	},
	"sssp": func(g *graph.Graph, p Params, out Out) error {
		want := ReferenceSSSP(g, p.Source)
		return check(out, want, fmt.Sprintf("[bsp sssp] source=%d ", p.Source), fmt.Sprintf(" reached=%d\n", reached(want)))
	},
	"tc": func(g *graph.Graph, _ Params, out Out) error {
		n := graph.ReferenceTriangles(g)
		return check(out, []int64{n}, fmt.Sprintf("[bsp tc] triangles=%d ", n))
	},
	"tc-streaming": func(g *graph.Graph, _ Params, out Out) error {
		n := graph.ReferenceTriangles(g)
		return check(out, []int64{n}, fmt.Sprintf("[bsp tc-streaming] triangles=%d ", n))
	},
	"pagerank": func(g *graph.Graph, p Params, out Out) error {
		return checkScores(out, refPageRank(g, p.Rounds), "[bsp pagerank] supersteps=")
	},
	"kcore": func(g *graph.Graph, _ Params, out Out) error {
		want := refCores(g)
		var degeneracy int64
		for _, c := range want {
			degeneracy = max(degeneracy, c)
		}
		return check(out, want, fmt.Sprintf("[bsp kcore] degeneracy=%d ", degeneracy))
	},
	"lp": func(g *graph.Graph, p Params, out Out) error {
		want := refLabelPropagation(g, p.Rounds)
		return check(out, want, fmt.Sprintf("[bsp lp] %d communities in ", graph.CountComponents(want)))
	},
	"bc": func(g *graph.Graph, _ Params, out Out) error {
		return checkScores(out, refBetweenness(g), fmt.Sprintf("[bsp bc] sources=%d ", g.NumVertices()))
	},
	"mis": func(g *graph.Graph, _ Params, out Out) error {
		in := out.Answer
		var members int64
		for v := range in {
			members += in[v]
			covered := in[v] == 1
			for _, w := range g.Neighbors(int64(v)) {
				if in[v] == 1 && in[w] == 1 && w != int64(v) {
					return fmt.Errorf("members %d and %d are adjacent", v, w)
				}
				covered = covered || in[w] == 1
			}
			if !covered {
				return fmt.Errorf("vertex %d is neither a member nor next to one", v)
			}
		}
		return check(out, in, fmt.Sprintf("[bsp mis] %d members in ", members), " (valid=true)\n")
	},
	"diameter": func(g *graph.Graph, p Params, out Out) error {
		best, src := int64(-1), p.Source
		for sweep := 0; sweep < 4; sweep++ {
			far, ecc := src, int64(-1)
			for v, d := range graph.ReferenceBFS(g, src) {
				if d > ecc {
					far, ecc = int64(v), d
				}
			}
			if ecc <= best {
				break
			}
			best, src = ecc, far
		}
		return check(out, []int64{best}, fmt.Sprintf("[bsp diameter] >= %d ", best))
	},
	"degrees": func(g *graph.Graph, _ Params, out Out) error {
		n := g.NumVertices()
		if n == 0 {
			return check(out, []int64{0, 0, 0, 0, 0}, "[degrees] min=0 max=0 ")
		}
		var degs []int64
		var isolated int64
		for v := int64(0); v < n; v++ {
			degs = append(degs, int64(len(g.Neighbors(v))))
			if degs[v] == 0 {
				isolated++
			}
		}
		slices.Sort(degs)
		want := []int64{degs[0], degs[n-1], degs[n/2], degs[min(n-1, n*99/100)], isolated}
		return check(out, want, fmt.Sprintf("[degrees] min=%d max=%d ", want[0], want[1]))
	},
	"sv": func(g *graph.Graph, _ Params, out Out) error {
		want := graph.ReferenceComponents(g)
		return check(out, want, fmt.Sprintf("[sv] %d components, ", graph.CountComponents(want)))
	},
	"ccoef": func(g *graph.Graph, _ Params, out Out) error {
		n := graph.ReferenceTriangles(g)
		return check(out, []int64{n}, fmt.Sprintf("[ccoef] triangles=%d ", n))
	},
	"stcon": func(g *graph.Graph, p Params, out Out) error {
		d := graph.ReferenceBFS(g, p.Source)[p.Target]
		return check(out, []int64{d}, fmt.Sprintf("[stcon] %d->%d connected=%v distance=%d\n", p.Source, p.Target, d >= 0, d))
	},
}

// check reports whether out's Answer is want and its report contains every
// one of lines, each line of the report ending in a newline.
func check(out Out, want []int64, lines ...string) error {
	if !slices.Equal(out.Answer, want) {
		return fmt.Errorf("answer %v, the reference's %v", out.Answer, want)
	}
	report := strings.Join(out.Lines, "\n") + "\n"
	for _, l := range lines {
		if !strings.Contains(report, l) {
			return fmt.Errorf("report lacks %q:\n%s", l, report)
		}
	}
	return nil
}

// checkScores is check for floating-point answers, to a relative 1e-6.
func checkScores(out Out, want []float64, line string) error {
	if len(out.Scores) != len(want) {
		return fmt.Errorf("%d scores, the reference has %d", len(out.Scores), len(want))
	}
	for v := range want {
		if math.Abs(out.Scores[v]-want[v]) > 1e-6*math.Max(1, math.Abs(want[v])) {
			return fmt.Errorf("score[%d] = %g, the reference's %g", v, out.Scores[v], want[v])
		}
	}
	return check(Out{Lines: out.Lines}, nil, line)
}

func reached(dist []int64) (n int64) {
	for _, d := range dist {
		if d >= 0 {
			n++
		}
	}
	return n
}

// refPageRank is the BSP formulation in floating point: rounds updates of
// rank = 0.15/n + 0.85 * the rank/degree every neighbour sends; a vertex
// nobody sends to keeps its rank.
func refPageRank(g *graph.Graph, rounds int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for r := 0; r < rounds; r++ {
		in := make([]float64, n)
		got := make([]bool, n)
		for u := int64(0); u < n; u++ {
			for _, w := range g.Neighbors(u) {
				in[w] += rank[u] / float64(len(g.Neighbors(u)))
				got[w] = true
			}
		}
		for v := range rank {
			if got[v] {
				rank[v] = 0.15/float64(n) + 0.85*in[v]
			}
		}
	}
	return rank
}

// refCores peels a minimum-degree vertex at a time; a vertex's core number
// is the largest degree seen at a removal up to its own.
func refCores(g *graph.Graph) []int64 {
	n := g.NumVertices()
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = int64(len(g.Neighbors(int64(v))))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	var k int64
	for range n {
		v := int64(-1)
		for u := int64(0); u < n; u++ {
			if !removed[u] && (v < 0 || deg[u] < deg[v]) {
				v = u
			}
		}
		k = max(k, deg[v])
		core[v], removed[v] = k, true
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	return core
}

// refLabelPropagation is synchronous label propagation: every vertex that
// heard something last round folds it into its view of its neighbours'
// labels (by first adjacency position), adopts the plurality label, and
// tells its neighbours when it changed, for rounds rounds.
func refLabelPropagation(g *graph.Graph, rounds int) []int64 {
	n := g.NumVertices()
	label := make([]int64, n)
	view := make([][]int64, n)
	for v := range label {
		label[v], view[v] = int64(v), slices.Clone(g.Neighbors(int64(v)))
	}
	heard := make([][][2]int64, n)
	for step := 0; step == 0 || slices.ContainsFunc(heard, func(h [][2]int64) bool { return len(h) > 0 }); step++ {
		next := make([][][2]int64, n)
		for v := int64(0); v < n; v++ {
			if step > 0 && len(heard[v]) == 0 || len(view[v]) == 0 {
				continue
			}
			for _, m := range heard[v] {
				view[v][slices.Index(g.Neighbors(v), m[0])] = m[1]
			}
			counts := map[int64]int64{}
			for _, l := range view[v] {
				counts[l]++
			}
			if best := graphct.PluralityLabel(counts, label[v], step); best != label[v] {
				label[v] = best
				for _, w := range g.Neighbors(v) {
					if step < rounds {
						next[w] = append(next[w], [2]int64{v, best})
					}
				}
			}
		}
		heard = next
	}
	return label
}

// refBetweenness is Brandes' algorithm from every source, each shortest
// path counted once per ordered pair.
func refBetweenness(g *graph.Graph) []float64 {
	n := g.NumVertices()
	score := make([]float64, n)
	for s := int64(0); s < n; s++ {
		dist := graph.ReferenceBFS(g, s)
		sigma := make([]float64, n)
		sigma[s] = 1
		order := make([]int64, 0, n)
		for d := int64(0); ; d++ {
			before := len(order)
			for v := int64(0); v < n; v++ {
				if dist[v] == d {
					order = append(order, v)
					for _, w := range g.Neighbors(v) {
						if dist[w] == d+1 {
							sigma[w] += sigma[v]
						}
					}
				}
			}
			if len(order) == before {
				break
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, w := range g.Neighbors(v) {
				if dist[w] == dist[v]+1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if v != s {
				score[v] += delta[v]
			}
		}
	}
	return score
}

type kernelFixture struct {
	name        string
	g, weighted *graph.Graph
}

// kernelFixtures are the graphs every row runs on, each also with edge
// weights in [1,9] for the rows that read them. The loops+multi edge list
// checks Build's collapse: its self-loops and parallel edges must leave the
// simple graph every row is defined on.
func kernelFixtures(t *testing.T) []kernelFixture {
	t.Helper()
	type input struct {
		name  string
		n     int64
		edges []graph.Edge
	}
	inputs := []input{
		{"path", 12, gen.Path(12).EdgeList()},
		{"star", 9, gen.Star(9).EdgeList()},
		{"grid", 30, gen.Grid(5, 6).EdgeList()},
		{"empty", 0, nil},
		{"n=1", 1, nil},
		{"loops+multi", 7, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 2},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 5}}},
	}
	for i, cfg := range []gen.RMATConfig{{Scale: 5, EdgeFactor: 4, Seed: 1}, {Scale: 6, EdgeFactor: 6, Seed: 2}, {Scale: 7, EdgeFactor: 8, Seed: 3}} {
		edges, n, err := gen.RMATEdges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat%d", i+1), n, edges})
	}
	var out []kernelFixture
	for _, in := range inputs {
		w := graph.BuildOptions{Weights: gen.UniformWeights(len(in.edges), 9, uint64(len(out)))}
		out = append(out, kernelFixture{in.name, graph.MustBuild(in.n, in.edges, graph.BuildOptions{}), graph.MustBuild(in.n, in.edges, w)})
	}
	return out
}

// kernelParams are the runs TestKernelTable makes of row k on g: one, or
// for a row that reads a source list a batched run and, when it also
// reads a single source, a sequential one and a single-source one.
func kernelParams(t *testing.T, k *Kernel, g *graph.Graph) map[string]Params {
	n := g.NumVertices()
	p := Params{Source: g.MaxDegreeVertex(), Target: n - 1, Rounds: 7, Seed: 3}
	if k.Reads&Sources == 0 {
		return map[string]Params{"": p}
	}
	plan, err := batch.NewPlan([]int64{n - 1, 0, n / 2, 0}, n)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]Params{"batch": {Plan: plan, Batch: true}}
	if k.Reads&Source != 0 {
		runs["single"] = p
		runs["sequential"] = Params{Plan: plan}
	}
	return runs
}

// TestKernelTable runs every row of the kernel table on every fixture at
// one and three workers, and checks its primary runner against the row's
// naive reference and, where the row declares exact answers, the BSP
// answer against the GraphCT twin's. A row without a reference, or without
// a twin and a reason on noTwin, fails by name.
func TestKernelTable(t *testing.T) {
	for _, k := range kernels {
		if kernelRefs[k.Name] == nil {
			t.Errorf("row %s has no reference in kernelRefs", k.Name)
		}
		if k.BSP != nil && k.Twin == nil && noTwin[k.Name] == "" {
			t.Errorf("row %s has no GraphCT twin and no reason on noTwin", k.Name)
		}
	}
	for _, fx := range kernelFixtures(t) {
		for _, k := range kernels {
			ref := kernelRefs[k.Name]
			if ref == nil || fx.g.NumVertices() == 0 && k.Reads&(Source|Sources|Target) != 0 {
				continue // an empty graph has no vertex to start from
			}
			g := fx.g
			if k.Reads&Weights != 0 {
				g = fx.weighted
			}
			for tag, p := range kernelParams(t, k, g) {
				for _, w := range []int{1, 3} {
					t.Run(strings.Join(slices.DeleteFunc([]string{k.Name, fx.name, tag, fmt.Sprintf("w=%d", w)},
						func(s string) bool { return s == "" }), "/"), func(t *testing.T) {
						defer par.SetWorkers(par.SetWorkers(w))
						run := k.BSP
						if run == nil {
							run = k.Twin
						}
						out, err := run(g, p, nil)
						if err != nil {
							t.Fatal(err)
						}
						if err := ref(g, p, out); err != nil {
							t.Error(err)
						}
						if k.Exact && k.BSP != nil && p.Plan == nil {
							if twin, _ := k.Twin(g, p, nil); !slices.Equal(out.Answer, twin.Answer) {
								t.Errorf("BSP answer %v, GraphCT twin's %v", out.Answer, twin.Answer)
							}
						}
					})
				}
			}
		}
	}
}

// perturb changes one parameter a row may read. A single-pass row that
// reads a parameter without an entry here fails TestKernelIdentity by name.
// Weights are the graph's, pinned by the fingerprint's graph checksum.
var perturb = []struct {
	param  Param
	name   string
	change func(*Params)
}{
	{Source, "Source", func(p *Params) { p.Source++ }},
	{Sources, "Plan", func(p *Params) { p.Plan = &batch.Plan{Sources: []int64{3, 1}} }}, // the base's lanes swapped
	{Rounds, "Rounds", func(p *Params) { p.Rounds++ }},
	{Seed, "Seed", func(p *Params) { p.Seed++ }},
}

// TestKernelIdentity: a checkpoint names its run by the program the row
// runs, so for every single-pass BSP row the fingerprint's Program changes
// with each parameter the row reads, stays put when Source changes on a
// row that does not read it, and is the same for two runs under the same
// parameters.
func TestKernelIdentity(t *testing.T) {
	edges := gen.Grid(5, 6).EdgeList()
	flat := graph.MustBuild(30, edges, graph.BuildOptions{})
	weighted := graph.MustBuild(30, edges, graph.BuildOptions{Weights: gen.UniformWeights(len(edges), 9, 1)})
	covered := Weights
	for _, q := range perturb {
		covered |= q.param
	}
	for _, k := range kernels {
		if k.BSP == nil || k.MultiPass {
			continue // GraphCT-only and multi-pass rows write no checkpoints
		}
		if missing := k.Reads &^ covered; missing != 0 {
			t.Errorf("row %s reads parameters %#b, which perturb does not change", k.Name, missing)
		}
		g := flat
		if k.Reads&Weights != 0 {
			g = weighted
		}
		identity := func(p Params) string {
			t.Helper()
			stop := &ckpt.Hooks{Kill: func(step int64) bool { return step == 0 }}
			_, err := k.BSP(g, p, nil, core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir(), Hooks: stop}))
			var ie *core.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("row %s under %+v: want InterruptedError at boundary 0, got %v", k.Name, p, err)
			}
			s, err := ckpt.Load(ie.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			return s.FP.Program
		}
		for _, q := range perturb {
			reads := k.Reads&q.param != 0
			if !reads && q.param != Source {
				continue
			}
			// The base run is batched over two sources when it perturbs the
			// source list or the row answers only batches.
			p := Params{Source: 1, Rounds: 5, Seed: 7}
			if q.param == Sources || k.Reads&(Source|Sources) == Sources {
				p.Plan, p.Batch = &batch.Plan{Sources: []int64{1, 3}}, true
			}
			before := identity(p)
			if again := identity(p); again != before {
				t.Errorf("row %s: two runs under %+v are %q and %q", k.Name, p, before, again)
			}
			q.change(&p)
			switch after := identity(p); {
			case reads && after == before:
				t.Errorf("row %s: changing %s leaves its identity %q", k.Name, q.name, before)
			case !reads && after != before:
				t.Errorf("row %s does not read %s, but changing it moves its identity from %q to %q", k.Name, q.name, before, after)
			}
		}
	}
}
