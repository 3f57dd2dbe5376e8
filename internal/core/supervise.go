package core

// Run supervision: bounded deterministic retry, watchdog deadlines, and
// the glue that lets both reuse the checkpoint machinery's in-memory
// boundary snapshots.
//
// Retry exploits the engine's barrier structure: a superstep's compute
// sweep reads only boundary state (vertex states, the halted set, the
// previous boundary's inboxes) and writes vertex-confined state, so a
// trapped sweep can be rolled back by restoring the handful of arrays it
// may have touched — states, halt flags, the direction layer's visited
// bitmap, the trace profile — and unseeding the chunk-local aggregator
// partials. Inboxes, the message queue, worklists, and the sparse
// delivery lookasides are never mutated mid-sweep, so re-execution
// consumes exactly the input the failed attempt did and the retried run
// is bit-identical to a fault-free one at any worker count
// (supervise_test.go).
//
// The watchdog is a single goroutine armed only when Config.StepTimeout
// is set. It observes superstep progress through two atomics the engine
// updates at superstep entry, and on expiry persists what it can — an
// emergency checkpoint of the last boundary snapshot (via an atomic
// pointer; nothing a published snapshot can reach is written again while
// the run lasts, and stop joins the goroutine before Run hands the Result's
// arrays to its caller) and a flight-recorder dump — then latches a stall
// flag the engine turns into a typed *TimeoutError. A superstep that never
// finishes cannot return an error, but its artifacts are already on disk.
//
// With MaxRetries, StepTimeout, and RunTimeout all unset the supervisor
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

// WithRetries bounds deterministic superstep retry (Config.MaxRetries).
func WithRetries(n int) Option {
	return func(c *Config) { c.MaxRetries = n }
}

// WithStepTimeout sets the per-superstep watchdog deadline.
func WithStepTimeout(d time.Duration) Option {
	return func(c *Config) { c.StepTimeout = d }
}

// WithRunTimeout sets the whole-run deadline.
func WithRunTimeout(d time.Duration) Option {
	return func(c *Config) { c.RunTimeout = d }
}

// WithResumeLatest makes the run resume from the newest valid checkpoint
// in the policy's directory (Config.ResumeLatest).
func WithResumeLatest() Option {
	return func(c *Config) { c.ResumeLatest = true }
}

// supRun is the per-run supervisor state. nil when MaxRetries,
// StepTimeout, and RunTimeout are all unset.
type supRun struct {
	maxRetries  int
	stepTimeout time.Duration
	runTimeout  time.Duration
	runStart    time.Time
	// retries is the per-completed-superstep retry count (Result.
	// RetriesPerStep); maintained only when maxRetries > 0.
	retries []int64

	// Watchdog plumbing. lastSnap is the newest boundary snapshot
	// (ckptRun.publish; immutable once published), stepMark/curStep are the
	// in-flight superstep's start time and index, fired latches the
	// one-shot stall. done stops the goroutine and exited reports it gone.
	o        *obsRun
	policy   *ckpt.Policy
	lastSnap atomic.Pointer[ckpt.Snapshot]
	stepMark atomic.Int64 // unix nanos; 0 = no superstep in flight
	curStep  atomic.Int64
	fired    atomic.Bool
	done     chan struct{}
	exited   chan struct{}

	mu          sync.Mutex
	stallStep   int
	stallCkpt   string
	stallFlight string
}

// startSup resolves the run's supervisor; nil disables everything.
func startSup(cfg *Config) *supRun {
	if cfg.MaxRetries <= 0 && cfg.StepTimeout <= 0 && cfg.RunTimeout <= 0 {
		return nil
	}
	sp := &supRun{
		stepTimeout: cfg.StepTimeout,
		runTimeout:  cfg.RunTimeout,
		runStart:    time.Now(),
	}
	if cfg.MaxRetries > 0 {
		sp.maxRetries = cfg.MaxRetries
	}
	return sp
}

// startWatchdog arms the per-superstep deadline; a no-op without one.
func (sp *supRun) startWatchdog(o *obsRun, p *ckpt.Policy) {
	if sp.stepTimeout <= 0 {
		return
	}
	sp.o, sp.policy = o, p
	sp.done, sp.exited = make(chan struct{}), make(chan struct{})
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
// watchdog goroutine: it touches only the atomic snapshot pointer (nothing
// it reaches is written after publication), the checkpoint directory, and
// the flight recorder (internally locked).
func (sp *supRun) fire() {
	step := int(sp.curStep.Load())
	ckptPath := writeEmergency(sp.policy, sp.lastSnap.Load())
	var flightPath string
	if sp.policy != nil && sp.policy.Dir != "" {
		flightPath = sp.o.flightDump(sp.policy.Dir,
			fmt.Sprintf("watchdog: superstep %d exceeded %v", step, sp.stepTimeout))
	}
	sp.mu.Lock()
	sp.stallStep, sp.stallCkpt, sp.stallFlight = step, ckptPath, flightPath
	sp.mu.Unlock()
	sp.fired.Store(true)
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
// attempt may have recorded levels the retry must re-record), the
// direction layer's visited bitmap (its incident-edge sum is folded only
// after the trap check, so the bitmap alone needs restoring), the trace
// profile (the attempt's scan/superstep phases are discarded and
// re-recorded), and the chunk-local aggregator partials (reset
// deliberately preserves seeded partials for mergeAggregates to consume;
// a discarded attempt must unseed them or the retry would double-fold).
func (sp *supRun) rollbackTo(snap *ckpt.Snapshot, halted []bool, aux []int64, master *engineState, ds *dirState, scratch *runScratch, rec *trace.Recorder) {
	copy(master.states, snap.States)
	copy(halted, snap.Halted)
	if len(aux) > 0 && len(snap.Aux) == len(aux) {
		copy(aux, snap.Aux)
	}
	if ds != nil && len(snap.Visited) > 0 {
		copy(ds.visited, snap.Visited)
	}
	for _, cs := range scratch.chunks {
		for _, a := range cs.eng.aggregates {
			a.seeded = false
		}
	}
	rec.RestoreState(snap.Phases)
}
