package core

// Run supervision: bounded deterministic retry, watchdog deadlines, and
// the glue that lets both reuse the checkpoint machinery's in-memory
// boundary snapshots.
//
// Retry exploits the engine's barrier structure: a superstep's compute
// sweep reads only boundary state (vertex states, the halted set, the
// previous boundary's inboxes) and writes vertex-confined state, so a
// trapped sweep can be rolled back by restoring the handful of arrays it
// may have touched — states, halt flags, the program's aux state, the
// trace profile — and unseeding the chunk-local aggregator
// partials. Inboxes, the message queue, worklists, and the sparse
// delivery lookasides are never mutated mid-sweep, so re-execution
// consumes exactly the input the failed attempt did and the retried run
// is bit-identical to a fault-free one at any worker count
// (supervise_test.go).
//
// The watchdog is a single goroutine armed only when WithStepTimeout
// is set. It observes superstep progress through two atomics the engine
// updates at superstep entry, and on expiry persists what it can — an
// emergency checkpoint of the last boundary snapshot (via an atomic
// pointer; the write pins that snapshot, no boundary refills a pinned
// snapshot's arrays until the write ends, and stop joins the goroutine
// before Run hands the Result's arrays to its caller) and a
// flight-recorder dump — then latches a stall
// flag the engine turns into a typed *TimeoutError. A superstep that never
// finishes cannot return an error, but its artifacts are already on disk.
//
// With no retries and neither timeout set the supervisor
// is nil and the engine pays one pointer check per superstep, the same
// contract as the Obs and Checkpoint layers.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/trace"
)

// WithRetries bounds deterministic superstep retry: a vertex-program panic
// rolls the engine back to the last superstep boundary's in-memory
// snapshot and re-executes, up to n times per superstep, before giving up
// with *RetryExhaustedError. Because re-execution consumes exactly the
// boundary state the failed attempt did, a run that survives a transient
// fault is bit-identical (Result and profile) to a fault-free run at any
// worker count. 0 or negative disables retry. The bound is recorded in
// checkpoint fingerprints, so a resumed run must keep the bound it started
// with.
func WithRetries(n int) Option {
	return func(c *Config) { c.maxRetries = n }
}

// WithStepTimeout, when d is positive, arms a watchdog over each
// superstep: a superstep that outlives d triggers an emergency checkpoint
// (when a policy is configured) plus a flight-recorder dump from the
// watchdog goroutine, and the run returns *TimeoutError (Stalled=true) at
// the next boundary it reaches. No watchdog costs nothing on the hot path.
func WithStepTimeout(d time.Duration) Option {
	return func(c *Config) { c.stepTimeout = d }
}

// WithRunTimeout, when d is positive, bounds the whole run's wall-clock
// time. The deadline is checked at superstep boundaries: the engine
// finishes the superstep in flight, writes a checkpoint (when a policy is
// configured), and returns *TimeoutError (Stalled=false), so it composes
// with WithStop's finish-superstep-then-exit contract.
func WithRunTimeout(d time.Duration) Option {
	return func(c *Config) { c.runTimeout = d }
}

// WithResumeLatest makes the run resume from the newest *valid* checkpoint
// in the policy's directory (ckpt.ResumeLatestValid): corrupt, truncated
// and version-incompatible snapshots are skipped (each skip reported
// through the obs sink) and the chain falls back to the next older one. An
// empty directory starts fresh; a directory with only damaged checkpoints
// is an error. It requires a checkpoint policy and excludes WithResume.
func WithResumeLatest() Option {
	return func(c *Config) { c.resumeLatest = true }
}

// supRun is the per-run supervisor state. nil with no retries and
// neither timeout set.
type supRun struct {
	maxRetries  int
	stepTimeout time.Duration
	runTimeout  time.Duration
	runStart    time.Time
	// retries is the per-completed-superstep retry count (Result.
	// RetriesPerStep); maintained only when maxRetries > 0.
	retries []int64

	// Watchdog plumbing. lastSnap is the newest boundary snapshot
	// (ckptRun.publish), stepMark/curStep are the in-flight superstep's
	// start time and index, fired latches the one-shot stall. done stops
	// the goroutine and exited reports it gone.
	o        *obsRun
	policy   *ckpt.Policy
	lastSnap atomic.Pointer[ckpt.Snapshot]
	stepMark atomic.Int64 // unix nanos; 0 = no superstep in flight
	curStep  atomic.Int64
	fired    atomic.Bool
	done     chan struct{}
	exited   chan struct{}

	// pinned is the snapshot the stall's emergency write reads, taken from
	// lastSnap under mu, and written is closed when that write ends. fired
	// latches only after the write, so a superstep that stalls and then
	// completes can reach further boundaries meanwhile; release keeps them
	// from refilling the pinned snapshot's arrays.
	mu          sync.Mutex
	pinned      *ckpt.Snapshot
	written     chan struct{}
	stallStep   int
	stallCkpt   string
	stallFlight string
}

// startSup resolves the run's supervisor; nil disables everything.
func startSup(cfg *Config) *supRun {
	if cfg.maxRetries <= 0 && cfg.stepTimeout <= 0 && cfg.runTimeout <= 0 {
		return nil
	}
	sp := &supRun{
		stepTimeout: cfg.stepTimeout,
		runTimeout:  cfg.runTimeout,
		runStart:    time.Now(),
	}
	if cfg.maxRetries > 0 {
		sp.maxRetries = cfg.maxRetries
	}
	return sp
}

// startWatchdog arms the per-superstep deadline; a no-op without one.
func (sp *supRun) startWatchdog(o *obsRun, p *ckpt.Policy) {
	if sp.stepTimeout <= 0 {
		return
	}
	sp.o, sp.policy = o, p
	sp.done, sp.exited, sp.written = make(chan struct{}), make(chan struct{}), make(chan struct{})
	tick := sp.stepTimeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	} else if tick > time.Second {
		tick = time.Second
	}
	go sp.watch(tick)
}

// stop disarms the watchdog and waits for its goroutine to exit. Deferred
// from Run, so every exit path — success, fault, interrupt — reclaims the
// goroutine, and an emergency write in flight finishes before the caller
// owns the Result arrays the snapshot references.
func (sp *supRun) stop() {
	if sp.done != nil {
		close(sp.done)
		<-sp.exited
	}
}

func (sp *supRun) watch(tick time.Duration) {
	defer close(sp.exited)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-sp.done:
			return
		case <-t.C:
			if sp.fired.Load() {
				continue
			}
			mark := sp.stepMark.Load()
			if mark == 0 {
				continue
			}
			if time.Since(time.Unix(0, mark)) > sp.stepTimeout {
				sp.fire()
			}
		}
	}
}

// fire persists the stall artifacts and latches the flag. Runs on the
// watchdog goroutine: it touches only the snapshot it pins (whose arrays
// no boundary refills until the write ends), the checkpoint directory, and
// the flight recorder (internally locked). The emergency write has a
// payload buffer of its own: the engine's may be in use.
func (sp *supRun) fire() {
	step := int(sp.curStep.Load())
	sp.mu.Lock()
	snap := sp.lastSnap.Load()
	sp.pinned = snap
	sp.mu.Unlock()
	ckptPath := writeEmergency(new(ckpt.Writer), sp.policy, snap)
	close(sp.written)
	var flightPath string
	if sp.policy != nil {
		flightPath = sp.o.flightDump(sp.policy.Dir,
			fmt.Sprintf("watchdog: superstep %d exceeded %v", step, sp.stepTimeout))
	}
	sp.mu.Lock()
	sp.stallStep, sp.stallCkpt, sp.stallFlight = step, ckptPath, flightPath
	sp.mu.Unlock()
	sp.fired.Store(true)
}

// release returns once no emergency write reads s, so that record may
// refill its arrays. s is never the newest snapshot, so a write that has
// not pinned it yet never will.
func (sp *supRun) release(s *ckpt.Snapshot) {
	if sp.stepTimeout <= 0 {
		return
	}
	sp.mu.Lock()
	pinned := sp.pinned == s
	sp.mu.Unlock()
	if pinned {
		<-sp.written
	}
}

// beginStep marks a superstep's entry for the watchdog.
func (sp *supRun) beginStep(step int) {
	if sp.stepTimeout <= 0 {
		return
	}
	sp.curStep.Store(int64(step))
	sp.stepMark.Store(time.Now().UnixNano())
}

// stalledAt reports whether the watchdog fired during the given superstep.
func (sp *supRun) stalledAt(step int) bool {
	if !sp.fired.Load() {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stallStep == step
}

// stallErr returns the typed error for a latched stall, or nil. Checked
// at non-terminal superstep boundaries: a stalled superstep that does
// complete still ends the run (the deadline was real), while a stalled
// *terminal* superstep lets the finished run return its Result.
func (sp *supRun) stallErr() error {
	if !sp.fired.Load() {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return &TimeoutError{
		Superstep:          sp.stallStep,
		Limit:              sp.stepTimeout,
		Stalled:            true,
		CheckpointPath:     sp.stallCkpt,
		FlightRecorderPath: sp.stallFlight,
	}
}

// runExpired reports whether the whole-run deadline has passed.
func (sp *supRun) runExpired() bool {
	return sp.runTimeout > 0 && time.Since(sp.runStart) > sp.runTimeout
}

// rollbackTo restores the boundary snapshot over everything a trapped
// compute sweep may have mutated, priming a bit-identical re-execution:
// vertex states and halt flags (vertex-confined writes), the program's
// auxiliary state (AuxProgram writes are vertex-confined too, so the
// attempt may have recorded levels the retry must re-record), the trace
// profile (the attempt's scan/superstep phases are discarded and
// re-recorded), and the chunk-local aggregator partials (reset
// deliberately preserves seeded partials for mergeAggregates to consume;
// a discarded attempt must unseed them or the retry would double-fold).
func (sp *supRun) rollbackTo(snap *ckpt.Snapshot, halted []uint64, aux []int64, master *engineState, scratch *arena, rec *trace.Recorder) {
	copy(master.states, snap.States)
	copy(halted, snap.Halted.Words)
	if len(aux) > 0 && len(snap.Aux) == len(aux) {
		copy(aux, snap.Aux)
	}
	for _, cs := range scratch.chunks {
		for _, a := range cs.eng.aggregates {
			a.seeded = false
		}
	}
	rec.RestoreState(snap.Phases)
}
