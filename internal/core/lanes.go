package core

// Capability surfaces for batched multi-source ("MS-BFS style") programs:
// vertex programs whose int64 state is a uint64 lane bitmask (one bit per
// query in the batch) and whose messages are OR-combined bitmasks. The
// engine itself stays lane-agnostic — delivery, combining, direction
// optimization, and checkpointing all operate on opaque int64 payloads —
// but two small interfaces let the optional layers cooperate:
//
//   - LaneProgram exposes the batch's lane assignment, so the obs layer can
//     report lane occupancy and per-superstep lane activity. The
//     checkpoint fingerprint pins the assignment through the program's
//     ProgramName, which names its lane order (resuming a batch under a
//     different source order is a typed MismatchError, not silently
//     scrambled lanes).
//   - AuxProgram exposes program-owned per-run auxiliary state (e.g. the
//     per-vertex per-lane first-set levels MultiBFS recovers distances
//     from), so the checkpoint/retry machinery snapshots, restores, and
//     rolls it back exactly like vertex states — without it, a resumed or
//     retried batch would lose every level recorded before the boundary.
//
// Both follow the engine's nil-gating discipline: a program implementing
// neither costs nothing; the lane fold below runs only for observed runs
// of lane programs.

import "math/bits"

// Or is the bitwise-OR combiner lane-bitmask programs use. OR is
// commutative, associative, and idempotent, so every fold the engine
// performs — chunk merges, hub prefolds, pull-sweep reductions — yields
// the same mask in any order, under either broadcast treatment, at any
// worker count.
func Or(a, b int64) int64 { return a | b }

// LaneProgram is implemented by batched multi-source programs. Lanes
// returns the lane assignment: Lanes()[i] is the source vertex owning bit
// i of the per-vertex lane mask. The slice must be constant for the
// program's lifetime. Wrappers (e.g. the fault-injection harness) forward
// the inner program's lanes so wrapping never changes lane reporting.
type LaneProgram interface {
	Lanes() []int64
}

// AuxProgram is implemented by programs that keep per-run auxiliary state
// outside the engine's per-vertex int64 — state the checkpoint layer must
// persist for resume to be bit-identical. AuxState returns the backing
// slice; the engine deep-copies it into every boundary snapshot, copies a
// resumed snapshot's aux back over it, and restores it on superstep retry.
// Programs must confine writes the same way they confine SetState: only
// words derived from the computing vertex's own ID.
type AuxProgram interface {
	AuxState() []int64
}

// laneSourcesOf returns the program's lane assignment, or nil for
// programs without lanes.
func laneSourcesOf(p Program) []int64 {
	if lp, ok := p.(LaneProgram); ok {
		return lp.Lanes()
	}
	return nil
}

// auxOf returns the program's auxiliary state slice, or nil.
func auxOf(p Program) []int64 {
	if ap, ok := p.(AuxProgram); ok {
		return ap.AuxState()
	}
	return nil
}

// laneCount folds the superstep's outgoing traffic into the set of active
// lanes: the popcount of the OR of every payload. O(unicast + records) —
// broadcast records are O(frontier), so this is cheap, and O(sent) only
// under the tests' per-edge sends. Called only for observed runs of lane
// programs; the mask is a pure function of the logical traffic, so the
// reported count is identical at any worker count and under either
// broadcast treatment.
func laneCount(t *traffic) int64 {
	var m uint64
	for i := range t.bcasts {
		m |= uint64(t.bcasts[i].val)
	}
	for _, seg := range t.sends.segs {
		for _, v := range seg.vals() {
			m |= uint64(v)
		}
	}
	return int64(bits.OnesCount64(m))
}
