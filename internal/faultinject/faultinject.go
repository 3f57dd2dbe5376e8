// Package faultinject is a deterministic fault-injection harness for the
// BSP engine's checkpoint/recovery machinery. A Plan is keyed by superstep
// (and, for program panics, vertex) and can:
//
//   - panic a vertex program at an exact (superstep, vertex), or in the
//     InitialState sweep — permanently, or a bounded number of times
//     (the transient fault the engine's deterministic retry absorbs);
//   - fail a checkpoint write mid-stream (exercising write atomicity),
//     with ENOSPC as a named variant;
//   - tear a checkpoint write: bypass temp+rename and leave a truncated
//     file under the final name (the fallback chain must skip it);
//   - stall a superstep (one bounded sleep) to trip the engine watchdog;
//   - deliver a simulated kill at a superstep boundary (the engine
//     behaves exactly as for SIGTERM: checkpoint, then InterruptedError);
//   - corrupt checkpoints already on disk (bit flips, truncation).
//
// Everything is deterministic — no timers, no signals, no randomness — so
// the recovery tests can kill a run at every superstep boundary and assert
// bit-identical resumption. cmd/bspgraph exposes plans through the hidden
// -fault-plan flag for CI's signal-free smoke tests.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
)

// initStep is the pseudo-superstep identifying the InitialState sweep in
// panic directives ("panic@init:V").
const initStep = int64(-1)

// ErrInjectedWrite is the error injected write failures surface.
var ErrInjectedWrite = errors.New("faultinject: injected checkpoint write failure")

// errInjectedENOSPC is the error injected out-of-space write failures
// surface; it wraps syscall.ENOSPC so errors.Is(err, syscall.ENOSPC) holds.
var errInjectedENOSPC = fmt.Errorf("faultinject: injected checkpoint write failure: %w", syscall.ENOSPC)

// PanicN is a transient fault: vertex Vertex's program panics on its first
// Count executions of one superstep, then succeeds — the shape the
// engine's bounded deterministic retry absorbs. Each retry attempt runs
// Compute exactly once for the vertex, so Count is the number of attempts
// consumed before success.
type PanicN struct {
	Vertex    int64
	remaining atomic.Int64
}

// newPanicN builds a transient-panic spec that fires count times.
func newPanicN(vertex, count int64) *PanicN {
	pn := &PanicN{Vertex: vertex}
	pn.remaining.Store(count)
	return pn
}

// SlowStep is a one-shot superstep stall: the first Compute call of the
// superstep sleeps Millis milliseconds (once per process, not per vertex),
// long enough to trip a Config.StepTimeout watchdog without distorting
// every subsequent attempt or superstep.
type SlowStep struct {
	Millis int64
	done   atomic.Bool
}

// Plan is a deterministic fault schedule. The zero value injects nothing.
type Plan struct {
	// PanicAt maps superstep → vertex whose program panics in that
	// superstep (-1 for the InitialState sweep).
	PanicAt map[int64]int64
	// PanicNAt maps superstep → a transient panic spec for that superstep.
	PanicNAt map[int64]*PanicN
	// SlowStepAt maps superstep → a one-shot stall for that superstep.
	SlowStepAt map[int64]*SlowStep
	// FailWriteAt holds the superstep boundaries whose checkpoint write
	// fails mid-stream.
	FailWriteAt map[int64]bool
	// ENOSPCAt holds the superstep boundaries whose checkpoint write fails
	// mid-stream with ENOSPC.
	ENOSPCAt map[int64]bool
	// TornWriteAt holds the superstep boundaries whose checkpoint write is
	// torn: a truncated payload lands under the final name with no
	// temp+rename, reported as success (ckpt.Hooks.TornWrite).
	TornWriteAt map[int64]bool
	// KillAt holds the superstep boundaries at which a simulated kill is
	// delivered.
	KillAt map[int64]bool
}

// ParsePlan parses a fault-plan spec: semicolon-separated directives of
// the forms
//
//	panic@S:V     panic vertex V's program in superstep S (S may be "init")
//	panicn@S:V:K  panic vertex V's program K times in superstep S, then
//	              succeed (transient fault; retry fodder)
//	slowstep@S:MS stall superstep S once for MS milliseconds (watchdog
//	              fodder)
//	failwrite@S   fail the checkpoint write at the boundary after superstep S
//	enospc@S      same, but the failure is ENOSPC
//	tornwrite@S   tear the checkpoint write at the boundary after superstep
//	              S: truncated bytes under the final name, reported as
//	              success
//	kill@S        simulated kill at the boundary after superstep S
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		kind, arg, ok := strings.Cut(dir, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: directive %q has no @", dir)
		}
		switch kind {
		case "panic":
			stepStr, vertStr, ok := strings.Cut(arg, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: panic directive %q needs step:vertex", dir)
			}
			step := initStep
			if stepStr != "init" {
				var err error
				step, err = strconv.ParseInt(stepStr, 10, 64)
				if err != nil || step < 0 {
					return nil, fmt.Errorf("faultinject: bad superstep %q in %q", stepStr, dir)
				}
			}
			vertex, err := strconv.ParseInt(vertStr, 10, 64)
			if err != nil || vertex < 0 {
				return nil, fmt.Errorf("faultinject: bad vertex %q in %q", vertStr, dir)
			}
			if p.PanicAt == nil {
				p.PanicAt = map[int64]int64{}
			}
			p.PanicAt[step] = vertex
		case "panicn":
			parts := strings.Split(arg, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("faultinject: panicn directive %q needs step:vertex:count", dir)
			}
			step, err := strconv.ParseInt(parts[0], 10, 64)
			if err != nil || step < 0 {
				return nil, fmt.Errorf("faultinject: bad superstep %q in %q", parts[0], dir)
			}
			vertex, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || vertex < 0 {
				return nil, fmt.Errorf("faultinject: bad vertex %q in %q", parts[1], dir)
			}
			count, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || count < 1 {
				return nil, fmt.Errorf("faultinject: bad panic count %q in %q", parts[2], dir)
			}
			if p.PanicNAt == nil {
				p.PanicNAt = map[int64]*PanicN{}
			}
			p.PanicNAt[step] = newPanicN(vertex, count)
		case "slowstep":
			stepStr, msStr, ok := strings.Cut(arg, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: slowstep directive %q needs step:millis", dir)
			}
			step, err := strconv.ParseInt(stepStr, 10, 64)
			if err != nil || step < 0 {
				return nil, fmt.Errorf("faultinject: bad superstep %q in %q", stepStr, dir)
			}
			ms, err := strconv.ParseInt(msStr, 10, 64)
			if err != nil || ms < 1 {
				return nil, fmt.Errorf("faultinject: bad stall duration %q in %q", msStr, dir)
			}
			if p.SlowStepAt == nil {
				p.SlowStepAt = map[int64]*SlowStep{}
			}
			p.SlowStepAt[step] = &SlowStep{Millis: ms}
		case "failwrite", "enospc", "tornwrite", "kill":
			step, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || step < 0 {
				return nil, fmt.Errorf("faultinject: bad superstep %q in %q", arg, dir)
			}
			m := &p.FailWriteAt
			switch kind {
			case "enospc":
				m = &p.ENOSPCAt
			case "tornwrite":
				m = &p.TornWriteAt
			case "kill":
				m = &p.KillAt
			}
			if *m == nil {
				*m = map[int64]bool{}
			}
			(*m)[step] = true
		default:
			return nil, fmt.Errorf("faultinject: unknown directive kind %q in %q", kind, dir)
		}
	}
	return p, nil
}

// Hooks returns the ckpt hooks realizing the plan's write failures, torn
// writes, and kills, or nil when the plan has none.
func (p *Plan) Hooks() *ckpt.Hooks {
	if p == nil || (len(p.FailWriteAt) == 0 && len(p.ENOSPCAt) == 0 &&
		len(p.TornWriteAt) == 0 && len(p.KillAt) == 0) {
		return nil
	}
	return &ckpt.Hooks{
		WrapWrite: func(step int64, w io.Writer) io.Writer {
			// Let part of the header through so the failure lands
			// mid-stream, after bytes have already hit the temp file.
			if p.FailWriteAt[step] {
				return &failingWriter{w: w, remaining: 12, err: ErrInjectedWrite}
			}
			if p.ENOSPCAt[step] {
				return &failingWriter{w: w, remaining: 12, err: errInjectedENOSPC}
			}
			return w
		},
		TornWrite: func(step int64) bool { return p.TornWriteAt[step] },
		Kill:      func(step int64) bool { return p.KillAt[step] },
	}
}

type failingWriter struct {
	w         io.Writer
	remaining int
	err       error
}

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, f.err
	}
	if len(b) > f.remaining {
		n, err := f.w.Write(b[:f.remaining])
		f.remaining = 0
		if err != nil {
			return n, err
		}
		return n, f.err
	}
	f.remaining -= len(b)
	return f.w.Write(b)
}

// WrapProgram wraps prog so it realizes the plan's program-level faults:
// panics (permanent and transient) at the plan's (superstep, vertex)
// coordinates and one-shot superstep stalls. The wrapper forwards the
// inner program's fingerprint name, so wrapped and unwrapped runs produce
// interchangeable checkpoints. A plan with no program-level faults
// returns prog unchanged (zero engine overhead).
func (p *Plan) WrapProgram(prog core.Program) core.Program {
	if p == nil || (len(p.PanicAt) == 0 && len(p.PanicNAt) == 0 && len(p.SlowStepAt) == 0) {
		return prog
	}
	return &panicProgram{inner: prog, plan: p}
}

type panicProgram struct {
	inner core.Program
	plan  *Plan
}

func (pp *panicProgram) InitialState(g *graph.Graph, v int64) int64 {
	if target, ok := pp.plan.PanicAt[initStep]; ok && target == v {
		panic(fmt.Sprintf("faultinject: planned panic in InitialState at vertex %d", v))
	}
	return pp.inner.InitialState(g, v)
}

func (pp *panicProgram) Compute(v *core.VertexContext) {
	step := int64(v.Superstep())
	if ss, ok := pp.plan.SlowStepAt[step]; ok && ss.done.CompareAndSwap(false, true) {
		time.Sleep(time.Duration(ss.Millis) * time.Millisecond)
	}
	if target, ok := pp.plan.PanicAt[step]; ok && target == v.ID() {
		panic(fmt.Sprintf("faultinject: planned panic at superstep %d, vertex %d", step, v.ID()))
	}
	if pn, ok := pp.plan.PanicNAt[step]; ok && pn.Vertex == v.ID() && pn.remaining.Add(-1) >= 0 {
		panic(fmt.Sprintf("faultinject: transient panic at superstep %d, vertex %d", step, v.ID()))
	}
	pp.inner.Compute(v)
}

// ProgramName forwards the inner program's fingerprint identity.
func (pp *panicProgram) ProgramName() string {
	return core.ProgramNameOf(pp.inner)
}

// PullCapable forwards the inner program's pull capability, so wrapping
// never changes direction decisions (or fingerprints) versus the
// unwrapped run.
func (pp *panicProgram) PullCapable() bool {
	if p, ok := pp.inner.(core.PullProgram); ok {
		return p.PullCapable()
	}
	return false
}

// Lanes forwards the inner program's lane assignment (core.LaneProgram);
// nil when the inner program is unbatched, which the engine treats as
// absent — so wrapping never changes fingerprints or lane reporting.
func (pp *panicProgram) Lanes() []int64 {
	if p, ok := pp.inner.(core.LaneProgram); ok {
		return p.Lanes()
	}
	return nil
}

// AuxState forwards the inner program's auxiliary state (core.AuxProgram)
// so checkpoints taken through the wrapper snapshot and restore it.
func (pp *panicProgram) AuxState() []int64 {
	if p, ok := pp.inner.(core.AuxProgram); ok {
		return p.AuxState()
	}
	return nil
}

// FlipBit flips the given bit of the byte at offset in the file at path —
// the on-disk corruption primitive for checkpoint validation tests.
func FlipBit(path string, offset int64, bit uint) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 || offset >= int64(len(data)) {
		return fmt.Errorf("faultinject: offset %d out of range for %d-byte file %s", offset, len(data), path)
	}
	data[offset] ^= 1 << (bit % 8)
	return os.WriteFile(path, data, 0o644)
}

// TruncateTail removes the final n bytes of the file at path.
func TruncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 || n > fi.Size() {
		return fmt.Errorf("faultinject: cannot truncate %d bytes from %d-byte file %s", n, fi.Size(), path)
	}
	return os.Truncate(path, fi.Size()-n)
}
