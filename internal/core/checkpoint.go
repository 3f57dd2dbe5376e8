package core

// Checkpoint/restore wiring for the BSP engine (package ckpt holds the
// file format). A checkpoint is taken at the superstep boundary — after
// superstep S's compute sweep, merges, and delivery have completed — and
// captures everything the next superstep depends on: vertex states, the
// halted set, the messages sent in S (re-delivered on resume), per-step
// counters, aggregators, and the accumulated trace profile. Because the
// engine is deterministic at any worker count, a resumed run replays
// supersteps S+1.. exactly as the uninterrupted run would have, so Result
// and profile are bit-identical (recovery_test.go).
//
// With no checkpoint policy, no Stop channel, and no Resume path, Run's
// hot path pays a single nil-pointer check per superstep.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"math/bits"
	"slices"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// Option mutates a Config; the bspalg single-run wrappers accept trailing
// Options so callers can enable checkpointing, resume, or interruption
// without new function signatures.
type Option func(*Config)

// WithCheckpoint enables superstep-boundary checkpointing under p.
func WithCheckpoint(p *ckpt.Policy) Option {
	return func(c *Config) { c.Checkpoint = p }
}

// WithResume makes the run restore from the checkpoint at path instead of
// starting at superstep 0.
func WithResume(path string) Option {
	return func(c *Config) { c.Resume = path }
}

// WithStop installs a stop channel: when it is closed the engine finishes
// the current superstep, checkpoints (if a policy is configured), and
// returns *InterruptedError.
func WithStop(ch <-chan struct{}) Option {
	return func(c *Config) { c.Stop = ch }
}

// WithMaxSupersteps bounds the run (see Config.MaxSupersteps).
func WithMaxSupersteps(n int) Option {
	return func(c *Config) { c.MaxSupersteps = n }
}

// programNamer lets a vertex program name itself for checkpoint
// fingerprints. Programs that don't implement it are named by their Go
// type. Wrappers (e.g. the fault-injection harness) forward the inner
// program's name so wrapping never changes the fingerprint.
type programNamer interface {
	ProgramName() string
}

// ProgramNameOf returns the fingerprint name of a vertex program.
func ProgramNameOf(p Program) string {
	if n, ok := p.(programNamer); ok {
		return n.ProgramName()
	}
	return fmt.Sprintf("%T", p)
}

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// crcInt64s hashes s as little-endian bytes, converted 32 KiB at a time
// over a re-sliced source/destination pair, so the loop has one condition
// and one store per value: the conversion, not the CRC, is graphCRC's cost.
func crcInt64s(h hash.Hash32, s []int64) {
	var buf [1 << 15]byte
	for len(s) > 0 {
		blk := s[:min(len(s), len(buf)/8)]
		out := buf[:8*len(blk)]
		for i, x := range blk {
			binary.LittleEndian.PutUint64(out[8*i:8*i+8], uint64(x))
		}
		h.Write(out)
		s = s[len(blk):]
	}
}

// graphCRC checksums the graph's identity: vertex count, flags, and the
// CSR arrays (plus weights when present). Computed once per checkpointed
// run; O(E) but pure streaming. On compressed graphs the delta-varint
// bytes are hashed directly — never decoded — so the CRC is O(1) extra
// memory, but it differs from the flat CRC of the same graph: the
// representation is part of the fingerprint (see Fingerprint.Rep).
func graphCRC(g *graph.Graph) uint32 {
	h := crc32.New(ckptCRCTable)
	var hdr [10]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(g.NumVertices()))
	if g.Directed() {
		hdr[8] = 1
	}
	if g.Weighted() {
		hdr[9] = 1
	}
	h.Write(hdr[:])
	crcInt64s(h, g.Offsets())
	if g.Compressed() {
		crcInt64s(h, g.CompressedOffsets())
		h.Write(g.CompressedBlob())
	} else {
		crcInt64s(h, g.Adjacency())
	}
	if g.Weighted() {
		crcInt64s(h, g.Weights())
	}
	return h.Sum32()
}

func costsCRC(c CostSchedule) uint32 {
	h := crc32.New(ckptCRCTable)
	crcInt64s(h, []int64{
		c.ScanLoadsPerVertex,
		c.ActiveIssuePerVertex, c.ActiveLoadsPerVertex, c.ActiveStoresPerVertex,
		c.RecvLoadsPerMsg, c.RecvIssuePerMsg,
		c.SendStoresPerMsg, c.SendLoadsPerMsg, c.SendIssuePerMsg,
		c.DeliverLoadsPerMsg, c.DeliverStoresPerMsg,
		c.HotMsgChunk,
	})
	return h.Sum32()
}

// runFingerprint builds the fingerprint the run's checkpoints carry and
// that Resume validates the loaded checkpoint against.
func runFingerprint(cfg *Config, g *graph.Graph, maxSteps int, maxMsgs int64, costs CostSchedule) ckpt.Fingerprint {
	label := ""
	if cfg.Checkpoint != nil {
		label = cfg.Checkpoint.Label
	}
	// The sweep partition (sweepBoundaries), which aggregator fold trees
	// follow: the degree-weighted ranges cut at multiples of 64 for a full
	// scan, their restriction to the candidates for a sparse sweep.
	schedule := "degree64"
	if cfg.SparseActivation {
		schedule = "ranges64"
	}
	return ckpt.Fingerprint{
		GraphCRC:      graphCRC(g),
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		Program:       ProgramNameOf(cfg.Program),
		Label:         label,
		Combiner:      cfg.Combiner != nil,
		Sparse:        cfg.SparseActivation,
		Schedule:      schedule,
		MaxSupersteps: int64(maxSteps),
		MaxMessages:   maxMsgs,
		CostsCRC:      costsCRC(costs),
		Direction:     cfg.Direction.String(),
		Retries:       int64(max(cfg.MaxRetries, 0)),
		Rep:           string(g.Rep()),
		Lanes:         laneString(laneSourcesOf(cfg.Program)),
	}
}

// ckptRun is the per-run checkpoint state. nil when the run has no policy,
// no stop channel, no resume path, and no supervisor — the engine's only
// hot-path cost.
type ckptRun struct {
	policy *ckpt.Policy
	stop   <-chan struct{}
	fp     ckpt.Fingerprint
	everyN int
	// sup, when non-nil, is the run supervisor (supervise.go): retry makes
	// record run at every boundary even when EveryN (or the absence of a
	// checkpoint directory) gates disk writes, and the run deadline is
	// surfaced from atBoundary so it composes with the stop channel's
	// finish-superstep-then-exit contract.
	sup *supRun
	// snap is the in-memory snapshot of the most recent completed
	// boundary, refreshed at every boundary while a policy is configured
	// (EveryN gates only disk writes) or retry is enabled. It backs the
	// emergency checkpoint written when a vertex program panics
	// mid-superstep and the retry supervisor's rollback.
	snap *ckpt.Snapshot
	// aux is the program's live auxiliary state slice (core.AuxProgram),
	// deep-copied into every boundary snapshot. nil for programs without
	// aux state.
	aux []int64
	// dirs and phases mirror, in the snapshot's element types, the run's
	// two append-only histories that are not []int64 already
	// (Result.DirectionPerStep, the recorder's phases). record extends each
	// by what the last superstep added and snapshots reference a prefix.
	dirs   []int64
	phases []trace.PhaseState
}

// startCkpt resolves the run's checkpoint state; nil disables everything.
func startCkpt(cfg *Config, g *graph.Graph, maxSteps int, maxMsgs int64, costs CostSchedule, sup *supRun) *ckptRun {
	if cfg.Checkpoint == nil && cfg.Stop == nil && cfg.Resume == "" && !cfg.ResumeLatest && sup == nil {
		return nil
	}
	ck := &ckptRun{policy: cfg.Checkpoint, stop: cfg.Stop, sup: sup, aux: auxOf(cfg.Program)}
	if ck.policy != nil || cfg.Resume != "" || cfg.ResumeLatest {
		ck.fp = runFingerprint(cfg, g, maxSteps, maxMsgs, costs)
	}
	if ck.policy != nil {
		ck.everyN = ck.policy.EveryN
		if ck.everyN <= 0 {
			ck.everyN = 1
		}
	}
	return ck
}

func aggSnapshot(aggs map[string]*aggregator) []ckpt.Aggregate {
	if len(aggs) == 0 {
		return nil
	}
	out := make([]ckpt.Aggregate, 0, len(aggs))
	for name, a := range aggs {
		out = append(out, ckpt.Aggregate{Name: name, Value: a.value, Seeded: a.seeded})
	}
	sortAggs(out)
	return out
}

func prevAggSnapshot(prev map[string]int64) []ckpt.Aggregate {
	if len(prev) == 0 {
		return nil
	}
	out := make([]ckpt.Aggregate, 0, len(prev))
	for name, v := range prev {
		out = append(out, ckpt.Aggregate{Name: name, Value: v, Seeded: true})
	}
	sortAggs(out)
	return out
}

func sortAggs(aggs []ckpt.Aggregate) {
	// Insertion sort: aggregator counts are tiny (programs in this repo
	// register at most one), and it keeps the checkpoint byte-stable.
	for i := 1; i < len(aggs); i++ {
		for j := i; j > 0 && aggs[j].Name < aggs[j-1].Name; j-- {
			aggs[j], aggs[j-1] = aggs[j-1], aggs[j]
		}
	}
}

// record refreshes the in-memory boundary snapshot after superstep step and
// publishes it. What the next sweep can overwrite is deep-copied: states,
// the halted set, the visited bitmap, aux, the in-flight traffic, the
// aggregates. What only ever grows by append is referenced — the per-step
// counters, retry counts, direction decisions and trace phases — so a
// boundary costs O(n + traffic) however many supersteps came before. Every
// such reference is clipped to its length: the engine appends past it (in
// place or after a move, never through it), and neither a snapshot's
// holder nor a rollback can reach the entries that come later.
func (ck *ckptRun) record(step int, live int64, res *Result, halted []uint64, t *traffic, master *engineState, ds *dirState, rec *trace.Recorder) {
	ck.phases = rec.AppendStates(ck.phases)
	s := &ckpt.Snapshot{
		FP:               ck.fp,
		Step:             int64(step),
		Live:             live,
		States:           slices.Clone(master.states),
		Halted:           ckpt.Bitmap{N: int64(len(res.States)), Words: slices.Clone(halted)},
		MsgDest:          make([]int64, 0, t.sends.sealed),
		MsgVal:           make([]int64, 0, t.sends.sealed),
		ActivePerStep:    slices.Clip(res.ActivePerStep),
		MessagesPerStep:  slices.Clip(res.MessagesPerStep),
		DeliveredPerStep: slices.Clip(res.DeliveredPerStep),
		Aggregates:       aggSnapshot(master.aggregates),
		PrevAggregates:   prevAggSnapshot(master.prevAggregates),
		Phases:           slices.Clip(ck.phases),
	}
	// In-flight traffic, sent during step: the unicast log, and beside it
	// the broadcast records delivery kept instead of expanding, so a resumed
	// run re-delivers exactly the traffic the original run held.
	for dest, value := range (traffic{sends: t.sends}).all() {
		s.MsgDest = append(s.MsgDest, dest)
		s.MsgVal = append(s.MsgVal, value)
	}
	if len(t.bcasts) > 0 {
		s.BcastSrc = make([]int64, len(t.bcasts))
		s.BcastVal = make([]int64, len(t.bcasts))
		s.BcastSeq = make([]int64, len(t.bcasts))
		for i, r := range t.bcasts {
			s.BcastSrc[i], s.BcastVal[i], s.BcastSeq[i] = r.src, r.val, r.seq
		}
	}
	// Direction layer state: the per-step decision sequence (so resume
	// re-delivers under the recorded decision and the restored Result
	// matches) and the visited bitmap (so post-resume decisions see the same
	// unvisited-edge count the uninterrupted run would have). Both absent
	// when the direction layer is inactive.
	if ds != nil {
		for _, d := range res.DirectionPerStep[len(ck.dirs):] {
			ck.dirs = append(ck.dirs, int64(d))
		}
		s.Directions = slices.Clip(ck.dirs)
		s.Visited = ckpt.Bitmap{N: s.Halted.N, Words: slices.Clone(ds.visited)}
	}
	// Per-superstep retry counts: present exactly when the retry supervisor
	// is active, so a resumed run's Result.RetriesPerStep matches an
	// uninterrupted one's.
	if ck.sup != nil && ck.sup.maxRetries > 0 {
		s.RetriesPerStep = slices.Clip(ck.sup.retries)
	}
	// Program-owned auxiliary state: MultiBFS's packed per-lane levels and
	// the like. The compute sweep confines aux writes to the computing
	// vertex's own words, so at a boundary the slice is quiescent and a
	// plain copy captures it exactly.
	s.Aux = slices.Clone(ck.aux)
	ck.publish(s)
}

// publish makes s the run's boundary snapshot: what a trapped superstep
// rolls back to, what emergency writes, and — through the supervisor's
// atomic pointer — what the watchdog goroutine persists on a stall.
func (ck *ckptRun) publish(s *ckpt.Snapshot) {
	ck.snap = s
	if ck.sup != nil {
		ck.sup.lastSnap.Store(s)
	}
}

// atBoundary runs at the end of every non-terminal superstep: refresh the
// boundary snapshot, write it to disk when the cadence (or an interrupt)
// says so, and surface interruption as *InterruptedError. A checkpoint
// write failure aborts the run; previously written checkpoints are intact
// (writes are temp-file + rename).
func (ck *ckptRun) atBoundary(step int, live int64, res *Result, halted []uint64, t *traffic, master *engineState, ds *dirState, rec *trace.Recorder) error {
	stopped := false
	if ck.stop != nil {
		select {
		case <-ck.stop:
			stopped = true
		default:
		}
	}
	sup := ck.sup
	// The run deadline surfaces here so it composes with Stop: the
	// superstep in flight finishes, a checkpoint is written (when a policy
	// is configured), and the run exits typed. An interrupt outranks the
	// deadline — it carries the caller's intent.
	timedOut := sup != nil && sup.runExpired()
	// With no policy, or a label-only one (a resume without a new
	// checkpoint directory), nothing is ever written, but retry still needs
	// the in-memory boundary snapshot to roll back to.
	p := ck.policy
	writes := p != nil && p.Dir != ""
	if writes && p.Hooks != nil && p.Hooks.Kill != nil && p.Hooks.Kill(int64(step)) {
		stopped = true
	}
	if writes || (sup != nil && sup.maxRetries > 0) {
		ck.record(step, live, res, halted, t, master, ds, rec)
	}
	path := ""
	if writes && (stopped || timedOut || (step+1)%ck.everyN == 0) {
		var err error
		if path, err = ckpt.WriteFile(p.Dir, ck.snap, ckpt.FileName(int64(step)), p.Hooks); err != nil {
			return err
		}
		if err := ckpt.Prune(p.Dir, p.Keep); err != nil {
			return err
		}
	}
	if stopped {
		return &InterruptedError{Superstep: step, CheckpointPath: path}
	}
	if timedOut {
		return &TimeoutError{Superstep: step, Limit: sup.runTimeout, CheckpointPath: path}
	}
	return nil
}

// emergency persists the run's boundary snapshot because the superstep
// after it trapped.
func (ck *ckptRun) emergency() string {
	if ck == nil {
		return ""
	}
	return writeEmergency(ck.policy, ck.snap)
}

// writeEmergency writes snap — the last completed boundary — as an
// emergency checkpoint and returns its path, or "" when there is nowhere to
// write, nothing to write, or the write fails: a fault is already being
// reported, and a failing emergency write must not mask it. The retry
// supervisor's post-init snapshot (Step = -1) is in-memory only: no
// boundary has completed, so there is nothing a resume could consume.
func writeEmergency(p *ckpt.Policy, snap *ckpt.Snapshot) string {
	if p == nil || p.Dir == "" || snap == nil || snap.Step < 0 {
		return ""
	}
	path, err := ckpt.WriteFile(p.Dir, snap, ckpt.EmergencyFileName(snap.Step), p.Hooks)
	if err != nil {
		return ""
	}
	return path
}

// loadResume loads and fingerprint-checks the checkpoint at cfg.Resume.
func (ck *ckptRun) loadResume(path string) (*ckpt.Snapshot, error) {
	s, err := ckpt.Load(path)
	if err != nil {
		return nil, err
	}
	if err := s.FP.Check(ck.fp); err != nil {
		return nil, err
	}
	// The loaded snapshot doubles as the resumed run's first boundary
	// snapshot, so retry can roll back — and an emergency checkpoint can be
	// written — before the first post-resume boundary refreshes it.
	ck.publish(s)
	return s, nil
}

// loadLatest resolves Config.ResumeLatest: walk the policy directory's
// checkpoints newest-first and load the first valid one, reporting each
// skipped (corrupt, truncated, or version-incompatible) snapshot through
// the run's obs sink. Returns (nil, nil) when the directory holds no
// checkpoints at all — a fresh start — but fails when every checkpoint
// present is damaged: silently recomputing from scratch is worse than
// making the operator decide.
func (ck *ckptRun) loadLatest(cfg *Config) (*ckpt.Snapshot, error) {
	if ck == nil || ck.policy == nil || ck.policy.Dir == "" {
		return nil, fmt.Errorf("core: ResumeLatest requires a checkpoint policy with a directory")
	}
	noter := obs.FindFallbackNoter(runSink(cfg))
	s, _, err := ckpt.ResumeLatestValid(ck.policy.Dir, ck.fp, func(path string, cause error) {
		if noter != nil {
			noter.NoteFallback(path, cause)
		}
	})
	if err != nil {
		var nv *ckpt.NoValidCheckpointError
		if errors.As(err, &nv) && nv.Skipped == 0 {
			return nil, nil
		}
		return nil, err
	}
	ck.publish(s)
	return s, nil
}

// restore applies a loaded snapshot to the run state: vertex states, the
// halted set, counters, aggregators, and the trace profile. The message
// queue and worklist are rebuilt by Run (they live in engine-local
// buffers).
func restore(s *ckpt.Snapshot, res *Result, halted []uint64, master *engineState, ds *dirState, rec *trace.Recorder) (live int64) {
	copy(res.States, s.States)
	copy(halted, s.Halted.Words)
	res.Supersteps = int(s.Step) + 1
	res.ActivePerStep = append(res.ActivePerStep[:0], s.ActivePerStep...)
	res.MessagesPerStep = append(res.MessagesPerStep[:0], s.MessagesPerStep...)
	res.DeliveredPerStep = append(res.DeliveredPerStep[:0], s.DeliveredPerStep...)
	if ds != nil {
		res.DirectionPerStep = res.DirectionPerStep[:0]
		for _, d := range s.Directions {
			res.DirectionPerStep = append(res.DirectionPerStep, DirectionMode(d))
		}
		// Rebuild the visited bitmap and its incident-edge sum from the
		// snapshot.
		copy(ds.visited, s.Visited.Words)
		ds.visitedEdges = 0
		for i, w := range ds.visited {
			for ; w != 0; w &= w - 1 {
				ds.visitedEdges += master.graph.Degree(int64(i<<6 | bits.TrailingZeros64(w)))
			}
		}
	}
	if len(s.Aggregates) > 0 {
		master.aggregates = make(map[string]*aggregator, len(s.Aggregates))
		for _, a := range s.Aggregates {
			// The reduction function is not serializable; mergeAggregates
			// adopts the one the resumed program registers on first use.
			master.aggregates[a.Name] = &aggregator{value: a.Value, seeded: a.Seeded}
		}
	}
	if len(s.PrevAggregates) > 0 {
		master.prevAggregates = make(map[string]int64, len(s.PrevAggregates))
		for _, a := range s.PrevAggregates {
			master.prevAggregates[a.Name] = a.Value
		}
	}
	rec.RestoreState(s.Phases)
	return s.Live
}
