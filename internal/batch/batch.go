// Package batch plans multi-source batched query execution: up to 64
// same-algorithm queries share one BSP engine run, each query owning one
// bit lane of a per-vertex uint64 frontier mask (MS-BFS style — see
// internal/bspalg's MultiBFS). The planner is deliberately tiny and
// deterministic: a source list maps to the same lane assignment on every
// host, at every worker count, and across checkpoint/resume — the lane
// order is pinned in checkpoint fingerprints, so this stability is a
// correctness property, not a convenience.
//
// The package also owns ParseSources, the comma-separated source-list
// validation shared by cmd/bspgraph and cmd/xmtbench, so both CLIs reject
// malformed or out-of-range lists identically.
package batch

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxLanes is the batch width: one query per bit of the per-vertex uint64
// lane mask.
const MaxLanes = 64

// Plan is a deterministic lane assignment for one batched run. Lane i is
// owned by Sources[i]; Lane maps each input query (in the order given to
// NewPlan, duplicates included) to the lane that answers it.
type Plan struct {
	// Sources holds the deduplicated sources in lane order: Sources[i]
	// owns bit i of the per-vertex lane mask.
	Sources []int64
	// Lane maps input query index -> lane index, so callers that submitted
	// duplicate sources can route every query to its shared lane.
	Lane []int
}

// NewPlan assigns the given sources to lanes: duplicates collapse onto the
// first occurrence's lane (stable first-occurrence order), every source
// must be a valid vertex of an n-vertex graph, and at most MaxLanes unique
// sources fit one batch. The assignment is a pure function of the input
// list, so two runs planned from the same list — or a run and its resumed
// continuation — agree on every lane.
func NewPlan(sources []int64, numVertices int64) (*Plan, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("batch: no sources given")
	}
	p := &Plan{Lane: make([]int, len(sources))}
	lane := make(map[int64]int, len(sources))
	for i, s := range sources {
		if s < 0 || s >= numVertices {
			return nil, fmt.Errorf("batch: source %d out of range [0,%d)", s, numVertices)
		}
		l, ok := lane[s]
		if !ok {
			l = len(p.Sources)
			if l == MaxLanes {
				return nil, fmt.Errorf("batch: more than %d unique sources (lane mask is one uint64)", MaxLanes)
			}
			lane[s] = l
			p.Sources = append(p.Sources, s)
		}
		p.Lane[i] = l
	}
	return p, nil
}

// Occupancy is the number of lanes the plan fills (unique sources).
func (p *Plan) Occupancy() int { return len(p.Sources) }

// String renders the lane assignment as a comma-separated source list in
// lane order — the form pinned into checkpoint fingerprints and printed by
// the CLIs.
func (p *Plan) String() string {
	var sb strings.Builder
	for i, s := range p.Sources {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(s, 10))
	}
	return sb.String()
}

// ParseSources parses a comma-separated vertex list ("5, 17,99") and
// validates every entry against an n-vertex graph. Duplicates are kept —
// NewPlan collapses them onto shared lanes — so a caller can report
// per-query results in submission order. The error messages are what
// cmd/bspgraph and cmd/xmtbench surface as usage errors (exit 2).
func ParseSources(list string, numVertices int64) ([]int64, error) {
	parts := strings.Split(list, ",")
	out := make([]int64, 0, len(parts))
	for _, part := range parts {
		tok := strings.TrimSpace(part)
		if tok == "" {
			return nil, fmt.Errorf("batch: empty source in list %q", list)
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("batch: source %q is not a vertex ID", tok)
		}
		if v < 0 || v >= numVertices {
			return nil, fmt.Errorf("batch: source %d out of range [0,%d)", v, numVertices)
		}
		out = append(out, v)
	}
	return out, nil
}
