// Package ckpt implements superstep-boundary checkpointing for the BSP
// engine: versioned, CRC32-checksummed, atomically written snapshots of
// everything a run needs to resume bit-identically — vertex states, the
// halted set, the in-flight message queue, per-step counters, aggregator
// values, and the accumulated trace profile — plus a config fingerprint so
// resuming against the wrong graph or program is a typed error rather than
// silent corruption.
//
// The engine's determinism invariant (Result and profile are bit-identical
// at any host worker count) extends through this package: a run killed at
// any superstep boundary and resumed from its checkpoint produces exactly
// the Result and profile of an uninterrupted run (see
// internal/core/recovery_test.go and docs/ROBUSTNESS.md).
package ckpt

import (
	"fmt"
	"io"

	"graphxmt/internal/trace"
)

// Policy configures checkpointing for a run. With no Policy at all the
// engine's hot path pays a single pointer check.
type Policy struct {
	// Dir is the directory checkpoints are written to (created if absent).
	// It is required: a run that resumes without taking new checkpoints
	// passes no Policy at all.
	Dir string
	// EveryN writes a checkpoint after every Nth superstep boundary;
	// 0 selects 1 (every boundary). Interrupts (core.WithStop) force a write
	// regardless of the cadence.
	EveryN int
	// Keep retains only the newest Keep periodic checkpoints, pruning older
	// ones after each successful write; 0 keeps everything. Emergency
	// checkpoints (written on a vertex-program panic) are never pruned.
	Keep int
	// Hooks, when non-nil, lets the fault-injection harness intercept
	// checkpoint writes and simulate kills. Nil in production.
	Hooks *Hooks
}

// Hooks are the fault-injection harness's interception points
// (internal/faultinject). Both are consulted at superstep boundaries only.
type Hooks struct {
	// WrapWrite, when non-nil, wraps the writer a checkpoint is encoded
	// into — returning a writer that fails mid-stream simulates a crash
	// during the write.
	WrapWrite func(step int64, w io.Writer) io.Writer
	// Kill, when non-nil and returning true for a step, makes the engine
	// behave as if it received a termination signal at that boundary: it
	// writes a checkpoint and returns InterruptedError.
	Kill func(step int64) bool
	// TornWrite, when non-nil and returning true for a step, makes
	// WriteFile bypass its temp+rename protocol for that step's
	// checkpoint: a truncated payload is written directly to the final
	// name and reported as success — the shape of a crash mid-write on a
	// filesystem without atomic rename. The damage surfaces at resume,
	// where the fallback chain must skip the torn file.
	TornWrite func(step int64) bool
}

// Fingerprint identifies the configuration a checkpoint was taken under.
// Resume compares the stored fingerprint against the resuming run's and
// rejects any difference with a MismatchError.
type Fingerprint struct {
	// GraphCRC is a CRC32 (Castagnoli) over the graph's CSR arrays.
	GraphCRC uint32
	Vertices int64
	Edges    int64
	// Program is the vertex program's identity (core.ProgramNameOf): its
	// type and parameters, so a run resumes only under the program value
	// it checkpointed — the same source, rounds, seed or lane order.
	Program string
	// Combiner records whether a combiner was configured. The function
	// itself cannot be fingerprinted: a program that may run under two
	// different combiners names the one it was given in its identity.
	Combiner bool
	// Sparse is Config.SparseActivation.
	Sparse bool
	// Schedule names the sweep partition the run's chunk boundaries come
	// from: "degree64" (a full scan, cut at the graph's degree-weighted
	// ranges rounded down to multiples of 64) or "ranges64" (a sparse sweep,
	// cut at their restriction to the candidates; "fixed", "degree" and
	// "ranges" name partitions older engines used). Aggregator fold trees
	// follow chunk boundaries, so a run may only resume under the partition
	// it started with.
	Schedule string
	// MaxSupersteps / MaxMessages are the resolved engine bounds.
	MaxSupersteps int64
	MaxMessages   int64
	// CostsCRC is a CRC32 over the resolved cost schedule.
	CostsCRC uint32
	// Retries is the run's core.WithRetries bound. The retry loop
	// re-executes a faulting superstep from the boundary snapshot, so the
	// retry budget shapes which faults a run survives; a resumed run must
	// keep the bound it started with for Result.RetriesPerStep to stay
	// comparable.
	Retries int64
	// Rep is the graph's adjacency representation ("flat" or "compressed"
	// — graph.Rep). GraphCRC hashes the stored arrays — the flat adjacency
	// or the delta-varint bytes — so the same logical graph fingerprints
	// differently per representation, and a run may only resume under the
	// representation it checkpointed with.
	Rep string
}

// Check compares fp (from a checkpoint) against want (the resuming run)
// field by field, returning a MismatchError naming the first difference.
func (fp Fingerprint) Check(want Fingerprint) error {
	type cmp struct {
		field     string
		got, want string
	}
	cs := []cmp{
		{"graph checksum", fmt.Sprintf("%08x", fp.GraphCRC), fmt.Sprintf("%08x", want.GraphCRC)},
		{"vertices", fmt.Sprint(fp.Vertices), fmt.Sprint(want.Vertices)},
		{"edges", fmt.Sprint(fp.Edges), fmt.Sprint(want.Edges)},
		{"program", fp.Program, want.Program},
		{"combiner", fmt.Sprint(fp.Combiner), fmt.Sprint(want.Combiner)},
		{"sparse activation", fmt.Sprint(fp.Sparse), fmt.Sprint(want.Sparse)},
		{"chunk schedule", fp.Schedule, want.Schedule},
		{"max supersteps", fmt.Sprint(fp.MaxSupersteps), fmt.Sprint(want.MaxSupersteps)},
		{"max messages", fmt.Sprint(fp.MaxMessages), fmt.Sprint(want.MaxMessages)},
		{"max retries", fmt.Sprint(fp.Retries), fmt.Sprint(want.Retries)},
		{"representation", fp.Rep, want.Rep},
		{"cost schedule", fmt.Sprintf("%08x", fp.CostsCRC), fmt.Sprintf("%08x", want.CostsCRC)},
	}
	for _, c := range cs {
		if c.got != c.want {
			return &MismatchError{Field: c.field, Got: c.got, Want: c.want}
		}
	}
	return nil
}

// Aggregate is one named aggregator's persisted state.
type Aggregate struct {
	Name   string
	Value  int64
	Seeded bool
}

// Bitmap is a per-vertex flag set as the engine keeps it: vertex v is bit
// v&63 of Words[v>>6], N is the vertex count, and the bits past N are zero.
// On disk it is N bytes of 0 or 1, so the file layout is the []bool's.
type Bitmap struct {
	N     int64
	Words []uint64
}

// Snapshot is the complete engine state at one superstep boundary: the
// boundary after superstep Step completed, before Step+1 begins. Messages
// are the ones sent during Step (they are delivered to inboxes when the
// run resumes). All slices are stored by value in the checkpoint file.
type Snapshot struct {
	FP Fingerprint
	// Step is the last completed superstep.
	Step int64
	// Live is the number of non-halted vertices after Step.
	Live int64
	// States and Halted are per-vertex (length FP.Vertices).
	States []int64
	Halted Bitmap
	// MsgDest/MsgVal are the in-flight message queue (sent in Step,
	// consumed by Step+1), parallel slices in send order.
	MsgDest []int64
	MsgVal  []int64
	// BcastSrc/BcastVal/BcastSeq are the in-flight broadcast records: one
	// entry per SendToNeighbors call — source vertex, payload, and the
	// record's position in the unicast stream (BcastSeq[i] unicasts precede
	// record i; non-decreasing). Parallel slices in record order (ascending
	// source). Empty when the boundary's traffic holds no broadcast, or when
	// the writer stored it as per-edge messages in MsgDest/MsgVal, which
	// reads the same.
	BcastSrc []int64
	BcastVal []int64
	BcastSeq []int64
	// Per-step counters, each of length Step+1.
	ActivePerStep    []int64
	MessagesPerStep  []int64
	DeliveredPerStep []int64
	// Directions is the per-superstep push/pull decision sequence: one
	// entry per completed superstep (length Step+1), values 1 (push) or 2
	// (pull) — core.DirectionMode. Visited is the direction heuristic's
	// visited-vertex bitmap (FP.Vertices bits). Every snapshot carries both.
	Directions []int64
	Visited    Bitmap
	// RetriesPerStep is the per-superstep retry count: one entry per
	// completed superstep (length Step+1) when the run's retry supervisor
	// was active, empty otherwise.
	RetriesPerStep []int64
	// Aux is the program's auxiliary state — the deep copy of
	// core.AuxProgram's backing slice at this boundary (e.g. MultiBFS's
	// packed per-vertex per-lane levels). Its length and encoding are
	// program-defined; FP.Program (a batch's lane order included) pins the
	// interpretation. Empty for programs without aux state.
	Aux []int64
	// Aggregates holds the run-level aggregators, sorted by name.
	// PrevAggregates is the previous-superstep view a program reads; the
	// engine writes the aggregates there too, which is what that view is
	// at every boundary, and ignores it on load.
	Aggregates     []Aggregate
	PrevAggregates []Aggregate
	// Phases is the accumulated trace profile.
	Phases []trace.PhaseState
}
