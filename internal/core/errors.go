package core

import (
	"fmt"
	"time"
)

// ProgramError reports a vertex-program panic recovered by the engine. No
// panic raised inside Program.InitialState or Program.Compute escapes Run:
// the sweep traps it (deterministically — the lowest panicking vertex wins,
// independent of the host worker count), the engine writes an emergency
// checkpoint of the last completed superstep boundary when a checkpoint
// policy is configured, and Run returns this error.
type ProgramError struct {
	// Vertex is the vertex whose program panicked.
	Vertex int64
	// Superstep is the superstep during which the panic occurred; -1 for
	// the InitialState sweep.
	Superstep int
	// Phase is "init" (InitialState sweep) or "compute" (Compute sweep).
	Phase string
	// Recovered is the value the panic carried.
	Recovered any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
	// CheckpointPath is the emergency checkpoint written before returning,
	// or "" when none was (no policy, or no completed boundary yet).
	CheckpointPath string
	// FlightRecorderPath is the flight-recorder dump (the last N supersteps'
	// spans and counters as JSONL) written next to the emergency checkpoint,
	// or "" when no flight recorder was attached or no checkpoint was
	// written.
	FlightRecorderPath string
}

func (e *ProgramError) Error() string {
	return fmt.Sprintf("core: vertex program panicked at vertex %d, superstep %d, phase %s: %v",
		e.Vertex, e.Superstep, e.Phase, e.Recovered)
}

// InterruptedError reports a run stopped at a superstep boundary by
// Config.Stop or a fault-injected kill. The completed superstep's state was
// checkpointed (when a policy is configured) so the run can resume.
type InterruptedError struct {
	// Superstep is the last completed superstep.
	Superstep int
	// CheckpointPath is the checkpoint covering that boundary, or "" when
	// no checkpoint policy was configured.
	CheckpointPath string
}

func (e *InterruptedError) Error() string {
	if e.CheckpointPath == "" {
		return fmt.Sprintf("core: run interrupted after superstep %d (no checkpoint policy configured)", e.Superstep)
	}
	return fmt.Sprintf("core: run interrupted after superstep %d; checkpoint written to %s", e.Superstep, e.CheckpointPath)
}

// BudgetError reports a run that exceeded Config.MaxSupersteps without
// converging — the runaway guard for non-terminating vertex programs. It
// carries the last completed superstep's counters so the caller can see
// whether the computation was making progress.
type BudgetError struct {
	// MaxSupersteps is the bound that was exceeded.
	MaxSupersteps int
	// LastActive / LastSent / LastDelivered are the final superstep's
	// counters (zero when the budget was 0 supersteps).
	LastActive    int64
	LastSent      int64
	LastDelivered int64
	// Live is the number of non-halted vertices when the run stopped.
	Live int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: no convergence after %d supersteps (last superstep: %d active, %d sent, %d delivered; %d vertices live)",
		e.MaxSupersteps, e.LastActive, e.LastSent, e.LastDelivered, e.Live)
}

// RetryExhaustedError reports a superstep that kept faulting after
// Config.MaxRetries deterministic re-executions from the last boundary
// snapshot. Cause is the final attempt's fault (a *ProgramError for
// vertex-program panics); the emergency checkpoint and flight-recorder
// paths locate the persisted state of the last good boundary.
type RetryExhaustedError struct {
	// Superstep is the superstep that could not be completed.
	Superstep int
	// Attempts is the total number of executions (1 + retries).
	Attempts int
	// Cause is the fault from the final attempt.
	Cause error
	// CheckpointPath is the emergency checkpoint of the last completed
	// boundary, or "" when none could be written.
	CheckpointPath string
	// FlightRecorderPath is the flight-recorder dump written next to the
	// emergency checkpoint, or "" when no flight recorder was attached.
	FlightRecorderPath string
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("core: superstep %d still faulting after %d attempts: %v",
		e.Superstep, e.Attempts, e.Cause)
}

// Unwrap exposes the final attempt's fault to errors.Is/As.
func (e *RetryExhaustedError) Unwrap() error { return e.Cause }

// TimeoutError reports a run stopped by a watchdog deadline: either a
// single superstep outlived Config.StepTimeout (Stalled=true) or the whole
// run outlived Config.RunTimeout. In both cases the engine persists what it
// can — a flight-recorder dump at fire time and an emergency checkpoint of
// the last completed boundary — before returning.
type TimeoutError struct {
	// Superstep is the superstep in flight (step timeout) or the last
	// completed superstep (run timeout).
	Superstep int
	// Limit is the deadline that fired.
	Limit time.Duration
	// Stalled is true for a per-superstep deadline, false for the
	// whole-run deadline.
	Stalled bool
	// CheckpointPath is the emergency (step timeout) or periodic (run
	// timeout) checkpoint persisted before returning, or "".
	CheckpointPath string
	// FlightRecorderPath is the flight-recorder dump, or "".
	FlightRecorderPath string
}

func (e *TimeoutError) Error() string {
	if e.Stalled {
		return fmt.Sprintf("core: superstep %d stalled past the %v watchdog deadline", e.Superstep, e.Limit)
	}
	return fmt.Sprintf("core: run exceeded the %v deadline after superstep %d", e.Limit, e.Superstep)
}

// MessageCapError reports a superstep that exceeded
// Config.MaxMessagesPerSuperstep. Algorithms that legitimately exceed it
// (BSP triangle counting at scale) must use a streaming evaluator.
type MessageCapError struct {
	Superstep int
	Sent      int64
	Cap       int64
}

func (e *MessageCapError) Error() string {
	return fmt.Sprintf("core: superstep %d sent %d messages, exceeding the %d cap; use a streaming evaluator",
		e.Superstep, e.Sent, e.Cap)
}

// AsymmetricGraphError reports a graph flagged undirected whose adjacency
// is not symmetric, caught by a pull superstep: the boundary after
// Superstep delivered the frontier's out-degree sum (a combining one on
// which every vertex with a neighbor broadcast: one message for each), and
// the vertices then gathered a different number from their own neighbor lists.
// graph.Validate rejects such graphs at construction; a file opened without
// that check (graphio.OpenCSR2) can still carry one, on which push and pull
// would otherwise silently disagree.
type AsymmetricGraphError struct {
	// Superstep is the pull superstep whose messages did not add up.
	Superstep int
	// Delivered is the logical message count the boundary reported;
	// Gathered is what the following sweep read.
	Delivered, Gathered int64
}

func (e *AsymmetricGraphError) Error() string {
	return fmt.Sprintf("core: pull superstep %d delivered %d messages along out-edges but vertices gathered %d along in-edges: the graph is flagged undirected and its adjacency is not symmetric",
		e.Superstep, e.Delivered, e.Gathered)
}
