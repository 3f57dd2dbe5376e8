package graph

// unionFind is a disjoint-set forest with union by rank and path halving.
// It serves as the sequential reference for the connected-components
// kernels: both the GraphCT Shiloach-Vishkin kernel and the BSP label
// propagation algorithm must agree with it.
type unionFind struct {
	parent []int64
	rank   []int8
	sets   int64
}

// newUnionFind returns n singleton sets.
func newUnionFind(n int64) *unionFind {
	uf := &unionFind{
		parent: make([]int64, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = int64(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *unionFind) Find(x int64) int64 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y, reporting whether a merge happened.
func (uf *unionFind) Union(x, y int64) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (uf *unionFind) Sets() int64 { return uf.sets }

// Same reports whether x and y are in the same set.
func (uf *unionFind) Same(x, y int64) bool { return uf.Find(x) == uf.Find(y) }

// ReferenceComponents labels every vertex with the smallest vertex ID in
// its connected component using union-find, ignoring edge direction. It is
// the ground truth the parallel kernels are tested against.
func ReferenceComponents(g *Graph) []int64 {
	n := g.NumVertices()
	uf := newUnionFind(n)
	for v := int64(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			uf.Union(v, w)
		}
	}
	// Map each root to the minimum member ID for canonical labels.
	minOf := make(map[int64]int64)
	for v := int64(0); v < n; v++ {
		r := uf.Find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	}
	labels := make([]int64, n)
	for v := int64(0); v < n; v++ {
		labels[v] = minOf[uf.Find(v)]
	}
	return labels
}

// CountComponents returns the number of distinct labels in a component
// labeling.
func CountComponents(labels []int64) int64 {
	seen := make(map[int64]struct{}, 64)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return int64(len(seen))
}

// ReferenceBFS computes single-source hop distances sequentially with a FIFO
// queue, ignoring edge weights; unreachable vertices get -1. Ground truth
// for the BFS kernels.
func ReferenceBFS(g *Graph, source int64) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	if source < 0 || source >= n {
		return dist
	}
	dist[source] = 0
	queue := []int64{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ReferenceTriangles counts triangles by brute force over vertex triples of
// adjacency (via neighbor-pair membership tests). O(sum deg^2); only for
// small test graphs. The graph must be undirected with no self-loops or
// duplicate edges.
func ReferenceTriangles(g *Graph) int64 {
	var count int64
	n := g.NumVertices()
	for v := int64(0); v < n; v++ {
		nbr := g.Neighbors(v)
		for i := 0; i < len(nbr); i++ {
			for j := i + 1; j < len(nbr); j++ {
				a, b := nbr[i], nbr[j]
				if a == v || b == v {
					continue
				}
				if g.HasEdge(a, b) {
					count++
				}
			}
		}
	}
	// Each triangle is counted once per corner.
	return count / 3
}
