package bspalg

// Batched multi-source BFS (MS-BFS style, after Then et al., "The More the
// Merrier: Efficient Multi-Source Graph Traversal"): up to 64 BFS queries
// share one BSP run. Per-vertex state is a uint64 lane bitmask — bit i set
// means lane i's search has reached the vertex — and messages are
// OR-combined bitmasks, so one edge traversal carries every lane's
// frontier at once. This attacks the source paper's core finding head-on:
// BSP BFS drowns in per-edge frontier traffic, so dividing that traffic by
// the batch width is the single biggest throughput lever for query-heavy
// workloads (the deferred cmd/graphd batching query daemon in ROADMAP).
//
// Correctness rests on an induction the tests assert bit-exactly: a vertex
// broadcasts exactly the lane bits it acquired this superstep ("fresh"
// bits), so lane i's bit propagates one hop per superstep from its source
// — the same wavefront single-source BFSProgram produces — and the
// superstep at which a vertex's bit first set IS its BFS level. Levels are
// recorded out-of-band in a packed array (four 16-bit levels per int64
// word) exposed through core.AuxProgram, so checkpoint/resume and
// superstep retry preserve them exactly like vertex states.
//
// OR is commutative, associative, and idempotent, so every fold order the
// engine uses — chunk merges, combiner reduction, pull-sweep gathers,
// either broadcast treatment — yields the same masks; MultiBFS sets core.Or
// as its combiner, so a pull folds each vertex's gather into one mask.

import (
	"fmt"
	"math/bits"

	"graphxmt/internal/batch"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/trace"
)

// Packed level layout: four 16-bit levels per int64 word, so a 64-lane
// batch costs 16 words (128 bytes) per vertex. 0xFFFF marks "not yet
// reached"; a freshly allocated array is filled with -1 (every field
// unset). The 0xFFFE cap is far above the engine's default superstep
// budget (1000), so it is a structural invariant, not a practical limit.
const (
	laneLevelBits     = 16
	laneLevelsPerWord = 64 / laneLevelBits
	laneLevelMask     = 1<<laneLevelBits - 1
	laneLevelUnset    = laneLevelMask
	laneLevelMax      = laneLevelMask - 1
)

// multiBFSProgram is the batched multi-source vertex program. Construct it
// through MultiBFS/multiReach (the zero value is not runnable).
type multiBFSProgram struct {
	// plan is the lane assignment: plan.Sources[i] owns bit i.
	plan *batch.Plan
	// srcMask maps a source vertex to its lane bit. Read-only after
	// construction, so concurrent InitialState calls are safe.
	srcMask map[int64]uint64
	// levels is the packed per-vertex per-lane first-set superstep
	// (laneWords words per vertex), exposed via AuxState so checkpoints
	// carry it. nil for reachability-only batches, which skip the level
	// bookkeeping entirely.
	levels    []int64
	laneWords int
}

func newMultiProgram(g *graph.Graph, plan *batch.Plan, withLevels bool) *multiBFSProgram {
	p := &multiBFSProgram{
		plan:    plan,
		srcMask: make(map[int64]uint64, len(plan.Sources)),
	}
	for i, s := range plan.Sources {
		p.srcMask[s] |= 1 << uint(i)
	}
	if withLevels {
		p.laneWords = (len(plan.Sources) + laneLevelsPerWord - 1) / laneLevelsPerWord
		p.levels = make([]int64, g.NumVertices()*int64(p.laneWords))
		for i := range p.levels {
			p.levels[i] = -1 // every 16-bit field = laneLevelUnset
		}
	}
	return p
}

// InitialState implements core.Program: sources start with their own lane
// bit set (level 0); everyone else starts empty.
func (p *multiBFSProgram) InitialState(_ *graph.Graph, v int64) int64 {
	m, ok := p.srcMask[v]
	if !ok {
		return 0
	}
	if p.levels != nil {
		p.setLevels(v, m, 0)
	}
	return int64(m)
}

// ProgramName is the program's checkpoint fingerprint identity: its kind
// and its lane order. Per-vertex lane masks and the aux levels mean
// something only under the assignment they were written with, so a batch
// resumes only under the exact source order it started with.
func (p *multiBFSProgram) ProgramName() string {
	if p.levels == nil {
		return "multireach lanes=" + p.plan.String()
	}
	return "multibfs lanes=" + p.plan.String()
}

// Lanes implements core.LaneProgram: obs reports lane occupancy.
func (p *multiBFSProgram) Lanes() []int64 { return p.plan.Sources }

// AuxState implements core.AuxProgram: the packed levels ride in every
// boundary snapshot, so resumed and retried batches keep the levels
// recorded before the boundary. nil (absent) for reachability-only
// batches.
func (p *multiBFSProgram) AuxState() []int64 { return p.levels }

// Compute implements core.Program. A vertex ORs its incoming masks,
// extracts the bits it has not seen ("fresh"), records their levels, and
// broadcasts exactly those fresh bits — the per-lane traffic pattern of
// single-source BFS, packed 64 lanes wide.
func (p *multiBFSProgram) Compute(v *core.VertexContext) {
	if v.Superstep() == 0 {
		// Sources flood their lane bit; everyone else sleeps until woken.
		if m := uint64(v.State()); m != 0 {
			v.SendToNeighbors(int64(m))
		}
		v.VoteToHalt()
		return
	}
	var in uint64
	for _, m := range v.Messages() {
		in |= uint64(m)
	}
	visited := uint64(v.State())
	if fresh := in &^ visited; fresh != 0 {
		v.SetState(int64(visited | fresh))
		if p.levels != nil {
			p.setLevels(v.ID(), fresh, int64(v.Superstep()))
		}
		v.SendToNeighbors(int64(fresh))
	}
	v.VoteToHalt()
}

// setLevels records step as the first-set level of every lane in mask for
// vertex v. Writes touch only v's own words (the engine's vertex-confined
// side-effect rule), and each lane's field is written at most once per run
// — a bit is fresh exactly once.
func (p *multiBFSProgram) setLevels(v int64, mask uint64, step int64) {
	if step > laneLevelMax {
		panic(fmt.Sprintf("bspalg: superstep %d exceeds the packed level range %d", step, laneLevelMax))
	}
	base := v * int64(p.laneWords)
	for mask != 0 {
		lane := bits.TrailingZeros64(mask)
		mask &= mask - 1
		wi := base + int64(lane/laneLevelsPerWord)
		sh := uint(lane%laneLevelsPerWord) * laneLevelBits
		w := uint64(p.levels[wi])
		p.levels[wi] = int64(w&^(uint64(laneLevelMask)<<sh) | uint64(step)<<sh)
	}
}

// MultiResult is the unpacked outcome of one batched run.
type MultiResult struct {
	// Plan is the lane assignment the batch ran under; Plan.Lane routes
	// each submitted query (duplicates included) to its lane.
	Plan *batch.Plan
	// Supersteps is the batched run's superstep count: the deepest lane's
	// BFS depth plus the terminal superstep.
	Supersteps int
	// MessagesPerStep is the engine's per-superstep message counter for
	// the one shared run. It counts each lane-packed broadcast once per
	// edge — not once per lane per edge — which is precisely the
	// amortization the batch buys.
	MessagesPerStep []int64
	// Masks holds every vertex's final lane bitmask: bit i set means lane
	// i's search reached the vertex.
	Masks []int64
	// levels/laneWords back Dist; nil for reachability-only batches.
	levels    []int64
	laneWords int
}

// Dist unpacks lane's per-vertex hop distances (-1 for unreachable),
// bit-identical to a single-source BFS from Plan.Sources[lane]. nil for
// reachability-only batches, which record no levels.
func (r *MultiResult) Dist(lane int) []int64 {
	if r.levels == nil {
		return nil
	}
	bit := int64(1) << uint(lane)
	wi := int64(lane / laneLevelsPerWord)
	sh := uint(lane%laneLevelsPerWord) * laneLevelBits
	out := make([]int64, len(r.Masks))
	for v := range r.Masks {
		if r.Masks[v]&bit == 0 {
			out[v] = -1
			continue
		}
		out[v] = int64(uint64(r.levels[int64(v)*int64(r.laneWords)+wi]) >> sh & laneLevelMask)
	}
	return out
}

// MultiBFS runs up to 64 BFS queries as one batched engine pass and
// recovers every lane's per-vertex distances. Trailing options configure
// engine extras exactly as for BFS — including checkpointing: the lane
// assignment is pinned in the fingerprint and the packed levels ride in
// every snapshot, so a killed batch resumes bit-identically.
func MultiBFS(g *graph.Graph, plan *batch.Plan, rec *trace.Recorder, opts ...core.Option) (*MultiResult, error) {
	return runMulti(g, plan, rec, true, opts)
}

// runMulti runs a batched pass; without levels it answers reachability
// only (the reach kernel).
func runMulti(g *graph.Graph, plan *batch.Plan, rec *trace.Recorder, withLevels bool, opts []core.Option) (*MultiResult, error) {
	if plan == nil || plan.Occupancy() == 0 {
		return nil, fmt.Errorf("bspalg: empty batch plan")
	}
	prog := newMultiProgram(g, plan, withLevels)
	res, err := run(core.Config{
		Graph:    g,
		Program:  prog,
		Combiner: core.Or,
		Recorder: rec,
	}, opts)
	if err != nil {
		return nil, err
	}
	return &MultiResult{
		Plan:            plan,
		Supersteps:      res.Supersteps,
		MessagesPerStep: res.MessagesPerStep,
		Masks:           res.States,
		levels:          prog.levels,
		laneWords:       prog.laneWords,
	}, nil
}
