package experiments

// Batched multi-source BFS throughput: the query-serving experiment the
// MS-BFS layer exists for. One 64-lane batched run answers 64 BFS queries
// in a single engine pass; the control runs the same 64 queries as
// sequential single-source passes. Both sides produce bit-identical
// per-query distances (asserted here, not assumed), so the comparison
// isolates the amortization: every lane-packed broadcast serves all lanes
// crossing that edge, dividing the per-edge frontier traffic — the paper's
// dominant BSP cost — by the batch width.

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/graph"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// msbfsResult compares one batched multi-source run against sequential
// single-source runs over the same sources.
type msbfsResult struct {
	procs int
	// Plan is the lane assignment both sides answered.
	Plan *batch.Plan

	// BatchWall / SeqWall are host wall times: one batched engine pass vs
	// the sum of the per-source passes.
	BatchWall, SeqWall time.Duration
	// BatchSim / SeqSim are simulated XMT seconds at Setup.Procs, from the
	// recorded work profiles.
	BatchSim, SeqSim float64
	// BatchMessages / SeqMessages are total logical messages: the batched
	// side counts each lane-packed record once, so the ratio against
	// SeqMessages is the realized traffic amortization.
	BatchMessages, SeqMessages int64
	// BatchSupersteps is the batched run's superstep count (the deepest
	// lane plus the terminal step).
	BatchSupersteps int
}

// amortizedEdges is the logical edge traversals charged to each query
// after lane-packing.
func (r *msbfsResult) amortizedEdges() float64 {
	return float64(r.BatchMessages) / float64(r.Plan.Occupancy())
}

// msbfsSources picks the default batch: MaxLanes sources spread uniformly
// across the vertex ID range (stride n/64), the deterministic stand-in for
// a query mix. Duplicates from tiny graphs collapse in the planner.
func msbfsSources(g *graph.Graph) []int64 {
	n := g.NumVertices()
	srcs := make([]int64, 0, batch.MaxLanes)
	for i := int64(0); i < batch.MaxLanes; i++ {
		srcs = append(srcs, i*n/batch.MaxLanes)
	}
	return srcs
}

// msbfs runs the batched-vs-sequential comparison for s.Sources (nil
// selects msbfsSources) and verifies the two sides agree bit-exactly on
// every lane's distances before reporting any number.
func msbfs(g *graph.Graph, s Setup) (*msbfsResult, error) {
	sources := s.Sources
	if sources == nil {
		sources = msbfsSources(g)
	}
	plan, err := batch.NewPlan(sources, g.NumVertices())
	if err != nil {
		return nil, err
	}

	batchRec := trace.NewRecorder()
	batchStart := time.Now()
	mr, err := bspalg.MultiBFS(g, plan, batchRec, s.Engine...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bsp msbfs: %w", err)
	}
	r := &msbfsResult{
		procs:           s.Procs,
		Plan:            plan,
		BatchWall:       time.Since(batchStart),
		BatchSim:        machine.Seconds(s.model, batchRec.Phases(), s.Procs),
		BatchSupersteps: mr.Supersteps,
	}
	for _, m := range mr.MessagesPerStep {
		r.BatchMessages += m
	}

	for lane, src := range plan.Sources {
		seqRec := trace.NewRecorder()
		seqStart := time.Now()
		sr, err := bspalg.BFS(g, src, seqRec, s.Engine...)
		if err != nil {
			return nil, fmt.Errorf("experiments: bsp bfs source=%d: %w", src, err)
		}
		r.SeqWall += time.Since(seqStart)
		r.SeqSim += machine.Seconds(s.model, seqRec.Phases(), s.Procs)
		for _, m := range sr.MessagesPerStep {
			r.SeqMessages += m
		}
		if !reflect.DeepEqual(mr.Dist(lane), sr.Dist) {
			return nil, fmt.Errorf("msbfs: lane %d (source %d) distances diverge from the single-source run", lane, src)
		}
	}
	return r, nil
}

// render writes the batched-query throughput comparison, rating the
// batched pass as a query server: its queries per second and wall time
// per query.
func (r *msbfsResult) render(w io.Writer) {
	occ := r.Plan.Occupancy()
	var speedup, qps float64
	if r.BatchWall > 0 {
		speedup, qps = float64(r.SeqWall)/float64(r.BatchWall), float64(occ)/r.BatchWall.Seconds()
	}
	fmt.Fprintf(w, "MS-BFS batched queries: %d lanes, %d supersteps (verified bit-identical to %d sequential runs)\n",
		occ, r.BatchSupersteps, occ)
	fmt.Fprintf(w, "  %-28s %14s %14s\n", "", "batched (1 run)", fmt.Sprintf("sequential (%d)", occ))
	fmt.Fprintf(w, "  %-28s %14v %14v\n", "host wall", r.BatchWall.Round(time.Microsecond), r.SeqWall.Round(time.Microsecond))
	fmt.Fprintf(w, "  %-28s %14.4f %14.4f\n", fmt.Sprintf("simulated s (%d procs)", r.procs), r.BatchSim, r.SeqSim)
	fmt.Fprintf(w, "  %-28s %14d %14d\n", "logical messages", r.BatchMessages, r.SeqMessages)
	fmt.Fprintf(w, "  speedup %.2fx wall, %.2fx messages; %.0f queries/s, %v per query, %.0f amortized edge traversals/query\n",
		speedup, float64(r.SeqMessages)/float64(r.BatchMessages),
		qps, (r.BatchWall / time.Duration(occ)).Round(time.Microsecond), r.amortizedEdges())
}

// csv emits the deterministic numbers; the host wall times are left out.
func (r *msbfsResult) csv() ([]string, [][]string) {
	return nameValueCSV("lanes", r.Plan.Occupancy(), "batch_supersteps", r.BatchSupersteps,
		"batch_sim_s", r.BatchSim, "seq_sim_s", r.SeqSim,
		"batch_messages", r.BatchMessages, "seq_messages", r.SeqMessages,
		"amortized_edges_per_query", r.amortizedEdges())
}
