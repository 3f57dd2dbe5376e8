package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphxmt/internal/graph"
)

// readEdgeList parses the ubiquitous whitespace-separated edge-list text
// format (SNAP-style): one "u v [w]" pair per line, '#' or '%' comment
// lines, blank lines ignored, vertex count inferred as maxID+1. A third
// numeric column makes the graph weighted.
func readEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	var weights []int64
	sawWeight := false
	var maxID int64 = -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, parseErrf(line, "need two vertex IDs")
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, parseErrf(line, "bad vertex IDs %q %q", fields[0], fields[1])
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, graph.Edge{U: u, V: v})
		var w int64 = 1
		if len(fields) >= 3 {
			pw, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, parseErrf(line, "bad weight %q", fields[2])
			}
			w = pw
			sawWeight = true
		}
		weights = append(weights, w)
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: line + 1, Reason: "read error", Err: err}
	}
	if maxID+1 > maxTextVertices {
		return nil, parseErrf(0, "inferred vertex count %d exceeds limit %d", maxID+1, maxTextVertices)
	}
	bopt := graph.BuildOptions{SortAdjacency: true}
	if sawWeight {
		bopt.Weights = weights
	}
	return graph.Build(maxID+1, edges, bopt)
}

// WriteEdgeList writes g as a plain edge list ("u v" or "u v w" per line),
// undirected edges once with u <= v.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# graphxmt edge list: %v\n", g)
	for v := int64(0); v < g.NumVertices(); v++ {
		nbr := g.Neighbors(v)
		for i, u := range nbr {
			if !g.Directed() && v > u {
				continue
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "%d %d %d\n", v, u, g.NeighborWeights(v)[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
