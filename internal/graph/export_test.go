package graph

// DecodeAdjacency exposes the checked decoder to the external tests and the
// fuzz harness.
var DecodeAdjacency = decodeAdjacency

// MustCompress is Compress for test inputs that are known to compress.
func MustCompress(g *Graph) *Graph {
	c, err := Compress(g)
	if err != nil {
		panic(err)
	}
	return c
}
