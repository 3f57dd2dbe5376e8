// Package trace records work profiles: compact descriptions of the parallel
// work a graph kernel performed, phase by phase. A phase corresponds to one
// parallel region between barriers (one BSP superstep sub-phase, one
// iteration of a shared-memory kernel's parallel loop, one BFS level, ...).
//
// graphxmt separates correctness from performance: kernels execute for real
// on the host and, as they run, record how much work of each cost class each
// phase performed. The Cray XMT machine model (package machine) then turns a
// profile plus a processor count into simulated execution time. Simulated
// time is therefore a deterministic function of the recorded profile and
// never of host speed or host core count.
//
// Cost classes follow the quantities the paper's analysis is written in:
//
//   - Issue: instructions that retire from a stream without a memory round
//     trip (address arithmetic, compares, branches).
//   - Loads / Stores: reads and writes to the hashed global memory. The
//     paper counts these explicitly (e.g. the 181x write blowup of BSP
//     triangle counting).
//   - Hot ops: atomic fetch-and-add operations aimed at a SINGLE memory
//     word, which serialize in the memory system. The paper names this
//     exact mechanism: "serialization around a single atomic fetch-and-add
//     is possible, inhibiting scalability".
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// HotClass identifies a class of hotspot location. All operations recorded
// under one class within one phase are assumed to target the same memory
// word and therefore serialize against each other.
type HotClass uint8

const (
	// HotMsgCounter is the global message-queue tail counter a BSP engine
	// bumps with fetch-and-add for every message enqueued.
	HotMsgCounter HotClass = iota
	// HotQueueTail is the shared next-frontier queue tail used by the
	// level-synchronous shared-memory BFS.
	HotQueueTail
	// HotReduction is a single accumulator word (e.g. a global triangle
	// counter) updated by fetch-and-add.
	HotReduction
	// HotTermination is the shared vote-to-halt / "changed" flag word.
	HotTermination

	// NumHotClasses is the number of distinct hotspot classes.
	NumHotClasses
)

var hotClassNames = [NumHotClasses]string{
	"msg-counter", "queue-tail", "reduction", "termination",
}

// String returns a short human-readable name for the class.
func (h HotClass) String() string {
	if int(h) < len(hotClassNames) {
		return hotClassNames[h]
	}
	return fmt.Sprintf("hot(%d)", uint8(h))
}

// Phase is the work profile of one parallel region between barriers.
// Fields are updated with atomics so host-parallel kernels may record
// concurrently; use the Add* helpers rather than writing fields directly.
type Phase struct {
	Name  string // kernel-chosen label, e.g. "cc/iter"
	Index int    // iteration / superstep / level number

	Tasks  int64 // number of independent units of parallel work
	Issue  int64 // total issue-class ops across all tasks
	Loads  int64 // total global-memory reads
	Stores int64 // total global-memory writes

	// MaxTask is the cost (issue+mem ops) of the single largest task: the
	// phase's critical path. On scale-free graphs this is typically the
	// highest-degree vertex.
	MaxTask int64

	// Hot counts fetch-and-add operations per hotspot class.
	Hot [NumHotClasses]int64

	// Barriers is the number of full machine barriers this phase ends with
	// (usually 1).
	Barriers int64
}

// AddTasks records n tasks with aggregate costs. It is safe for concurrent
// use. Prefer one call per chunk over one call per element in hot loops.
func (p *Phase) AddTasks(n, issue, loads, stores int64) {
	atomic.AddInt64(&p.Tasks, n)
	atomic.AddInt64(&p.Issue, issue)
	atomic.AddInt64(&p.Loads, loads)
	atomic.AddInt64(&p.Stores, stores)
}

// AddHot records n fetch-and-add ops against the hotspot class c.
func (p *Phase) AddHot(c HotClass, n int64) {
	atomic.AddInt64(&p.Hot[c], n)
}

// ObserveTask updates the critical path with a task of the given total op
// count (issue + memory).
func (p *Phase) ObserveTask(ops int64) {
	for {
		cur := atomic.LoadInt64(&p.MaxTask)
		if ops <= cur || atomic.CompareAndSwapInt64(&p.MaxTask, cur, ops) {
			return
		}
	}
}

// HotTotal returns the total hotspot ops across all classes.
func (p *Phase) HotTotal() int64 {
	var t int64
	for _, h := range p.Hot {
		t += h
	}
	return t
}

// MaxHot returns the largest per-class hotspot count, i.e. the serialization
// bound of the worst single word.
func (p *Phase) MaxHot() int64 {
	var m int64
	for _, h := range p.Hot {
		if h > m {
			m = h
		}
	}
	return m
}

func (p *Phase) String() string {
	return fmt.Sprintf("%s[%d]{tasks=%d issue=%d loads=%d stores=%d hot=%d max=%d}",
		p.Name, p.Index, p.Tasks, p.Issue, p.Loads, p.Stores, p.HotTotal(), p.MaxTask)
}

// PhaseState is the value-type snapshot of a Phase: every profile field
// the machine model and the determinism tests consume, read once the
// phase's atomic updates have quiesced. Checkpoints encode it (see
// docs/ROBUSTNESS.md).
type PhaseState struct {
	Name     string
	Index    int
	Tasks    int64
	Issue    int64
	Loads    int64
	Stores   int64
	MaxTask  int64
	Hot      [NumHotClasses]int64
	Barriers int64
}

// State snapshots the phase's profile fields. The phase must be quiescent
// (no concurrent Add* calls), which holds at any superstep boundary.
func (p *Phase) State() PhaseState {
	return PhaseState{
		Name:     p.Name,
		Index:    p.Index,
		Tasks:    p.Tasks,
		Issue:    p.Issue,
		Loads:    p.Loads,
		Stores:   p.Stores,
		MaxTask:  p.MaxTask,
		Hot:      p.Hot,
		Barriers: p.Barriers,
	}
}

// AppendStates appends to dst the state of every recorded phase past the
// first len(dst) and returns it, so a caller that snapshots the recorder
// repeatedly converts each phase once: dst must hold the states of the
// recorder's first len(dst) phases, none of which has been charged since.
// The BSP engine's boundary snapshot is that caller — a superstep's phases
// are final once its boundary is reached. The recorder must be quiescent.
func (r *Recorder) AppendStates(dst []PhaseState) []PhaseState {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.phases[len(dst):] {
		dst = append(dst, p.State())
	}
	return dst
}

// RestoreState replaces the recorder's phases with ones materialized from
// the snapshot, preserving the attached observer. Used on resume from a
// checkpoint so the accumulated profile continues bit-identically.
func (r *Recorder) RestoreState(states []PhaseState) {
	if r == nil {
		return
	}
	phases := make([]*Phase, len(states))
	for i, s := range states {
		phases[i] = &Phase{
			Name:     s.Name,
			Index:    s.Index,
			Tasks:    s.Tasks,
			Issue:    s.Issue,
			Loads:    s.Loads,
			Stores:   s.Stores,
			MaxTask:  s.MaxTask,
			Hot:      s.Hot,
			Barriers: s.Barriers,
		}
	}
	r.mu.Lock()
	r.phases = phases
	r.mu.Unlock()
}

// phaseObserver receives a host-side notification for every StartPhase
// call on a Recorder it is attached to. It is the cross-link between the
// simulated work profile and host-runtime observability (package obs): a
// phase's wall-clock span is the gap between its StartPhase and the next
// one (or the observer's flush). Observers must not mutate the profile.
type phaseObserver interface {
	PhaseStarted(name string, index int)
}

// Recorder accumulates the phases of one kernel execution.
type Recorder struct {
	mu     sync.Mutex
	phases []*Phase

	// po is the host-observability attachment (set by CLIs) as a
	// phaseObserver, nil when it doesn't observe phases.
	po phaseObserver
}

// observerFactory, when set, attaches a fresh observer to every Recorder
// NewRecorder creates — the hook CLIs use to observe kernels that build
// their recorders internally (xmtbench's experiment suite).
var observerFactory func() any

// SetObserverFactory installs (or, with nil, clears) the process-wide
// observer factory and returns the previous one. Not safe to change while
// recorders are being created concurrently; CLIs set it once at startup.
func SetObserverFactory(f func() any) func() any {
	old := observerFactory
	observerFactory = f
	return old
}

// NewRecorder returns an empty Recorder (with the process's default
// observer attached, when a factory is installed).
func NewRecorder() *Recorder {
	r := &Recorder{}
	if observerFactory != nil {
		r.SetObserver(observerFactory())
	}
	return r
}

// SetObserver attaches a host-observability object to the recorder. If it
// implements phaseObserver, StartPhase will notify it. A nil recorder
// ignores the call; attaching nil detaches.
func (r *Recorder) SetObserver(o any) {
	if r == nil {
		return
	}
	r.po, _ = o.(phaseObserver)
}

// StartPhase appends and returns a new phase with the given name and index.
// A nil recorder returns a throwaway phase so kernels can record
// unconditionally.
func (r *Recorder) StartPhase(name string, index int) *Phase {
	p := &Phase{Name: name, Index: index, Barriers: 1}
	if r == nil {
		return p
	}
	r.mu.Lock()
	r.phases = append(r.phases, p)
	r.mu.Unlock()
	if r.po != nil {
		r.po.PhaseStarted(name, index)
	}
	return p
}

// Phases returns the recorded phases in order.
func (r *Recorder) Phases() []*Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Phase(nil), r.phases...)
}

// PhasesNamed returns the recorded phases whose Name equals name.
func (r *Recorder) PhasesNamed(name string) []*Phase {
	var out []*Phase
	for _, p := range r.Phases() {
		if p.Name == name {
			out = append(out, p)
		}
	}
	return out
}
