// Package graphct is a Go port of the shared-memory graph kernels the paper
// uses as its baseline: GraphCT's hand-tuned XMT-C algorithms, written
// against the loop-level parallelism of the Cray XMT. Kernels execute for
// real on the host and record a work profile (package trace) whose op
// counts follow the XMT-C implementations' memory-access structure, so the
// machine model (package machine) can reproduce the paper's timings.
//
// Provided kernels mirror GraphCT's published feature list: connected
// components (Shiloach-Vishkin style with in-iteration label propagation),
// level-synchronous breadth-first search, triangle counting and clustering
// coefficients, k-core decomposition, PageRank, sampled betweenness
// centrality, st-connectivity, and degree statistics.
package graphct

import (
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// Cost constants shared by the kernels: the per-operation charges that
// mirror each XMT-C loop body. They are package-level (not per-call)
// because they describe the implementations, not the inputs.
const (
	// ccLoadsPerEdge: adjacency entry + both endpoint labels.
	ccLoadsPerEdge = 3
	// ccIssuePerEdge: compare + branch.
	ccIssuePerEdge = 2

	// bfsLoadsPerEdge: adjacency entry + distance check of the target.
	bfsLoadsPerEdge = 2
	// bfsIssuePerEdge: compare + branch.
	bfsIssuePerEdge = 2
	// bfsStoresPerDiscovery: distance write + queue slot write.
	bfsStoresPerDiscovery = 2
	// bfsClaimChunk: enqueue slots are claimed from the shared queue tail
	// in chunks (per-thread buffering), so one fetch-and-add serves this
	// many discoveries. Bader-Madduri style chunked claiming.
	bfsClaimChunk = 8

	// triIssuePerCmp / triLoadsPerCmp: one merge step of the sorted
	// neighbor-list intersection.
	triIssuePerCmp = 1
	triLoadsPerCmp = 1
)

// CCResult is the output of ConnectedComponents.
type CCResult struct {
	// Labels maps each vertex to its component label (the smallest vertex
	// ID in the component once converged).
	Labels []int64
	// Iterations is the number of full edge-relaxation sweeps needed.
	Iterations int
	// LabelUpdates counts label writes per iteration.
	LabelUpdates []int64
}

// ConnectedComponents labels vertices by connected component using the
// GraphCT shared-memory algorithm: every iteration relaxes all edges,
// propagating smaller labels; a label written early in an iteration is
// visible to later edge relaxations in the same iteration ("label
// propagation in shared memory decreases the number of iterations", as the
// paper's Figure 1 discussion explains). Iterations repeat until a sweep
// makes no update.
//
// The relaxation sweep runs in ascending edge order so that results and
// iteration counts are reproducible; the XMT's unordered sweep converges in
// a statistically identical number of iterations.
func ConnectedComponents(g *graph.Graph, rec *trace.Recorder) *CCResult {
	n := g.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	res := &CCResult{Labels: labels}
	for {
		ph := rec.StartPhase("cc/iter", res.Iterations)
		var updates int64
		// Gauss-Seidel sweep: labels update in place.
		for v := int64(0); v < n; v++ {
			lv := labels[v]
			for _, w := range g.Neighbors(v) {
				if lw := labels[w]; lw < lv {
					lv = lw
				}
			}
			if lv < labels[v] {
				labels[v] = lv
				updates++
			}
		}
		m := g.NumEdges()
		ph.AddTasks(m, ccIssuePerEdge*m, ccLoadsPerEdge*m, updates)
		ph.ObserveTask(ccIssuePerEdge + ccLoadsPerEdge + 1)
		res.Iterations++
		res.LabelUpdates = append(res.LabelUpdates, updates)
		if updates == 0 {
			break
		}
	}
	return res
}

// BFSResult is the output of BFS.
type BFSResult struct {
	// Dist holds hop distances from the source; -1 for unreachable.
	Dist []int64
	// FrontierSizes holds the number of vertices at each BFS level,
	// starting with level 0 (the source).
	FrontierSizes []int64
	// EdgesScanned holds, per level, the number of adjacency entries
	// examined while expanding that level's frontier.
	EdgesScanned []int64
	// Levels is the number of BFS levels (the eccentricity + 1).
	Levels int
}

// BFS runs the level-synchronous shared-memory breadth-first search of
// Bader and Madduri: each level expands the exact frontier, marking
// undiscovered neighbors and enqueueing each exactly once via chunked
// fetch-and-add claims on the shared next-frontier queue.
func BFS(g *graph.Graph, source int64, rec *trace.Recorder) *BFSResult {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	res := &BFSResult{Dist: dist}
	if source < 0 || source >= n {
		return res
	}
	dist[source] = 0
	frontier := []int64{source}
	level := 0
	for len(frontier) > 0 {
		res.FrontierSizes = append(res.FrontierSizes, int64(len(frontier)))
		ph := rec.StartPhase("bfs/level", level)
		var next []int64
		var edges int64
		for _, v := range frontier {
			nbr := g.Neighbors(v)
			edges += int64(len(nbr))
			for _, w := range nbr {
				if dist[w] < 0 {
					dist[w] = int64(level + 1)
					next = append(next, w)
				}
			}
		}
		discovered := int64(len(next))
		ph.AddTasks(edges, bfsIssuePerEdge*edges, bfsLoadsPerEdge*edges+int64(len(frontier)),
			bfsStoresPerDiscovery*discovered)
		ph.AddHot(trace.HotQueueTail, (discovered+bfsClaimChunk-1)/bfsClaimChunk)
		ph.ObserveTask(bfsIssuePerEdge + bfsLoadsPerEdge + bfsStoresPerDiscovery)
		res.EdgesScanned = append(res.EdgesScanned, edges)
		frontier = next
		level++
	}
	res.Levels = level
	return res
}

// TriangleResult is the output of Triangles.
type TriangleResult struct {
	// Count is the number of distinct triangles in the graph.
	Count int64
	// Writes is the number of memory writes the kernel performed: one per
	// triangle found, the quantity the paper compares against BSP's
	// message writes (30.9M vs 5.6B, a 181x ratio).
	Writes int64
	// CompareOps is the number of steps GraphCT's sorted-intersection
	// merge takes, summed over every pair. The host computes it from the
	// intersection (see intersectPairs); it does not execute the merge.
	CompareOps int64
}

// Triangles counts distinct triangles with the shared-memory kernel: for
// every edge (v,u) with v < u, GraphCT merges the sorted adjacency lists
// of v and u counting common neighbors w > u, so each triangle v < u < w
// is found exactly once. The only writes are the per-discovery counter
// increments, matching the paper's analysis ("the shared memory
// implementation only produces a write when a triangle is detected").
//
// The profile charges that merge step for step. The host produces the
// same count and the same steps from a marked intersection per vertex
// (intersectPairs), which is the merge's answer without its
// data-dependent branches.
//
// The graph must be undirected with sorted adjacency.
func Triangles(g *graph.Graph, rec *trace.Recorder) *TriangleResult {
	if !g.SortedAdjacency() {
		panic("graphct: Triangles requires sorted adjacency")
	}
	ph := rec.StartPhase("tri/count", 0)
	// With detailed recording on, capture each pair's true merge cost so
	// the discrete-event model sees the real task-size skew (hub pairs are
	// thousands of times costlier than leaf pairs on scale-free graphs).
	const detailCap = 1 << 20
	var detail func(steps int64)
	if rec.Detail() && g.NumEdges()/2 <= detailCap {
		detail = func(steps int64) {
			ph.AddDetail(trace.TaskCost{
				Issue: uint32(steps * triIssuePerCmp),
				Mem:   uint32(steps*triLoadsPerCmp + 2),
			})
		}
	}
	count, cmps, maxPair := intersectPairs(g, nil, detail)
	m := g.NumEdges() / 2 // (v,u) pairs with v < u
	ph.AddTasks(m, triIssuePerCmp*cmps, triLoadsPerCmp*cmps+2*m, count)
	ph.ObserveTask(maxPair * (triIssuePerCmp + triLoadsPerCmp))
	return &TriangleResult{Count: count, Writes: count, CompareOps: cmps}
}

// intersectPairs visits every edge (v,u) with v < u, in ascending order of
// v and then of u, and intersects N(v) with N(u) as a two-pointer merge
// would. It returns the common neighbors w > u summed over the pairs (the
// triangles), the merge steps summed over the pairs, and the largest
// len(N(v))+len(N(u)). A non-nil perVertex credits each triangle to its
// three corners; a non-nil pair receives each pair's merge steps.
//
// When every adjacency list is strictly increasing — any graph built
// without KeepDuplicates — the merge is computed, not executed: N(v) is
// marked once per v and each pair is two binary searches plus branch-free
// sums of marks (markedIntersect). Multigraphs take mergeIntersect.
func intersectPairs(g *graph.Graph, perVertex []int64, pair func(steps int64)) (count, steps, maxPair int64) {
	n := g.NumVertices()
	var mark []uint8
	if strictlyIncreasing(g) {
		mark = make([]uint8, n)
	}
	var nvBuf, nuBuf []int64
	for v := int64(0); v < n; v++ {
		nv := g.DecodeNeighbors(v, nvBuf)
		nvBuf = nv
		above := nv[rank(nv, v):] // the u > v
		if len(above) == 0 {
			continue
		}
		if mark != nil {
			for _, w := range nv {
				mark[w] = 1
			}
		}
		for _, u := range above {
			nu := g.DecodeNeighbors(u, nuBuf)
			nuBuf = nu
			var c, s int64
			if mark != nil {
				c, s = markedIntersect(mark, nv, nu, u, perVertex)
			} else {
				c, s = mergeIntersect(nv, nu, u, perVertex)
			}
			count += c
			steps += s
			if perVertex != nil {
				perVertex[v] += c
				perVertex[u] += c
			}
			if p := int64(len(nv) + len(nu)); p > maxPair {
				maxPair = p
			}
			if pair != nil {
				pair(s)
			}
		}
		if mark != nil {
			for _, w := range nv {
				mark[w] = 0
			}
		}
	}
	return count, steps, maxPair
}

// markedIntersect returns what mergeIntersect returns for strictly
// increasing lists a and b, given mark[w] == 1 exactly for the w in a. The
// merge stops when either list runs out, by which point it has consumed
// exactly the elements <= M = min(last a, last b) of each list, taking one
// step per element except one step per common element, and every common
// element is <= M. So steps = rank(a,M) + rank(b,M) - |a∩b|, and the
// marks over b[:rank(b,M)] count a∩b, split at u into the common elements
// below and above the floor.
func markedIntersect(mark []uint8, a, b []int64, u int64, perVertex []int64) (count, steps int64) {
	if len(b) == 0 {
		return 0, 0
	}
	ra, rb := len(a), len(b)
	if la, lb := a[ra-1], b[rb-1]; la < lb {
		rb = rank(b, la)
	} else if lb < la {
		ra = rank(a, lb)
	}
	k := rank(b[:rb], u)
	var below int64
	for _, w := range b[:k] {
		below += int64(mark[w])
	}
	for _, w := range b[k:rb] {
		c := int64(mark[w])
		count += c
		if perVertex != nil {
			perVertex[w] += c
		}
	}
	return count, int64(ra+rb) - below - count
}

// mergeIntersect is GraphCT's two-pointer merge of sorted lists a and b: it
// counts common elements strictly greater than floor, crediting each to
// perVertex when that is non-nil, and reports the merge steps taken. It is
// the multigraph path, where a repeated neighbor moves the merge's exit.
func mergeIntersect(a, b []int64, floor int64, perVertex []int64) (count, steps int64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] == b[j]:
			if w := a[i]; w > floor {
				count++
				if perVertex != nil {
					perVertex[w]++
				}
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return count, steps
}

// rank returns the number of elements <= x in the ascending list s of
// vertex IDs, x >= 0, without a data-dependent branch: each step adds half
// or nothing under the sign mask of s[i]-x-1.
func rank(s []int64, x int64) int {
	if len(s) == 0 {
		return 0
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += half & int((s[base+half]-x-1)>>63)
		n -= half
	}
	return base + int(uint64(s[base]-x-1)>>63)
}

// strictlyIncreasing reports whether no adjacency list of the sorted
// graph g repeats a neighbor.
func strictlyIncreasing(g *graph.Graph) bool {
	var buf []int64
	for v := int64(0); v < g.NumVertices(); v++ {
		nbr := g.DecodeNeighbors(v, buf)
		buf = nbr
		for i := 1; i < len(nbr); i++ {
			if nbr[i] == nbr[i-1] {
				return false
			}
		}
	}
	return true
}

// ClusteringResult is the output of ClusteringCoefficients.
type ClusteringResult struct {
	// PerVertex holds each vertex's local clustering coefficient:
	// triangles(v) / (deg(v) * (deg(v)-1) / 2); 0 for degree < 2.
	PerVertex []float64
	// TrianglesPerVertex holds the number of triangles through each vertex.
	TrianglesPerVertex []int64
	// Global is the graph transitivity: 3*triangles / open+closed wedges.
	Global float64
	// Triangles is the distinct triangle count.
	Triangles int64
}

// ClusteringCoefficients computes local and global clustering coefficients
// using the triangle kernel's intersection (intersectPairs), crediting each
// triangle to all three corners.
func ClusteringCoefficients(g *graph.Graph, rec *trace.Recorder) *ClusteringResult {
	if !g.SortedAdjacency() {
		panic("graphct: ClusteringCoefficients requires sorted adjacency")
	}
	n := g.NumVertices()
	perVertex := make([]int64, n)
	ph := rec.StartPhase("ccoef/count", 0)
	count, cmps, _ := intersectPairs(g, perVertex, nil)
	m := g.NumEdges() / 2
	ph.AddTasks(m, cmps, cmps+2*m, 3*count)

	res := &ClusteringResult{
		PerVertex:          make([]float64, n),
		TrianglesPerVertex: perVertex,
		Triangles:          count,
	}
	var wedges int64
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		possible := d * (d - 1) / 2
		wedges += possible
		if possible > 0 {
			res.PerVertex[v] = float64(perVertex[v]) / float64(possible)
		}
	}
	if wedges > 0 {
		res.Global = 3 * float64(count) / float64(wedges)
	}
	return res
}

// STConnectivity reports whether t is reachable from s, and the hop
// distance if so (-1 otherwise). It runs the level-synchronous BFS and
// stops as soon as t's level completes.
func STConnectivity(g *graph.Graph, s, t int64, rec *trace.Recorder) (bool, int64) {
	n := g.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n {
		return false, -1
	}
	if s == t {
		return true, 0
	}
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	frontier := []int64{s}
	level := 0
	for len(frontier) > 0 {
		ph := rec.StartPhase("stcon/level", level)
		var next []int64
		var edges int64
		for _, v := range frontier {
			nbr := g.Neighbors(v)
			edges += int64(len(nbr))
			for _, w := range nbr {
				if dist[w] < 0 {
					dist[w] = int64(level + 1)
					next = append(next, w)
				}
			}
		}
		ph.AddTasks(edges, bfsIssuePerEdge*edges, bfsLoadsPerEdge*edges, 2*int64(len(next)))
		if dist[t] >= 0 {
			return true, dist[t]
		}
		frontier = next
		level++
	}
	return false, -1
}
