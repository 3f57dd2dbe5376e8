package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphxmt/internal/graph"
)

// maxTextVertices bounds the vertex count of a text graph (the DIMACS
// problem line, or an edge list's largest ID plus one), so a hostile or
// corrupt file cannot force an enormous allocation: 1<<26 vertices is
// ~512 MiB of CSR offsets.
const maxTextVertices = 1 << 26

// readDIMACS parses a DIMACS-style graph:
//
//	c <comment>
//	p edge <numVertices> <numEdges>
//	e <u> <v> [weight]
//
// Vertex IDs are 1-based in the file and converted to 0-based. A missing
// problem line is an error; edge-count mismatches are tolerated (the actual
// edges read win) because many published files get m wrong.
func readDIMACS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int64 = -1
	var edges []graph.Edge
	var weights []int64
	sawWeight := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "c":
			// comment
		case "p":
			if n >= 0 {
				return nil, parseErrf(line, "duplicate problem line")
			}
			if len(fields) < 4 {
				return nil, parseErrf(line, "malformed problem line")
			}
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || v < 0 {
				return nil, parseErrf(line, "bad vertex count %q", fields[2])
			}
			if v > maxTextVertices {
				return nil, parseErrf(line, "vertex count %d exceeds limit %d", v, maxTextVertices)
			}
			n = v
		case "e", "a":
			if n < 0 {
				return nil, parseErrf(line, "edge before problem line")
			}
			if len(fields) < 3 {
				return nil, parseErrf(line, "malformed edge")
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 64)
			v, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, parseErrf(line, "bad edge endpoints")
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, parseErrf(line, "endpoint out of [1,%d]", n)
			}
			edges = append(edges, graph.Edge{U: u - 1, V: v - 1})
			var w int64 = 1
			if len(fields) >= 4 {
				pw, err := strconv.ParseInt(fields[3], 10, 64)
				if err != nil {
					return nil, parseErrf(line, "bad weight %q", fields[3])
				}
				w = pw
				sawWeight = true
			}
			weights = append(weights, w)
		default:
			return nil, parseErrf(line, "unknown record %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: line + 1, Reason: "read error", Err: err}
	}
	if n < 0 {
		return nil, &ParseError{Reason: "missing problem line"}
	}
	var bopt graph.BuildOptions
	if sawWeight {
		bopt.Weights = weights
	}
	return graph.Build(n, edges, bopt)
}

// WriteDIMACS writes g in the DIMACS text format read by readDIMACS.
// Each edge is written once with u < v.
func WriteDIMACS(w io.Writer, g *graph.Graph, comment string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", line); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.UndirectedEdges()); err != nil {
		return err
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		nbr := g.Neighbors(v)
		for i, u := range nbr {
			if v > u {
				continue
			}
			if g.Weighted() {
				if _, err := fmt.Fprintf(bw, "e %d %d %d\n", v+1, u+1, g.NeighborWeights(v)[i]); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", v+1, u+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
