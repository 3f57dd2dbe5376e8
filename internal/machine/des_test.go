package machine

import (
	"container/heap"
	"testing"

	"graphxmt/internal/trace"
)

// DES is the discrete-event Threadstorm simulator, the test oracle the
// analytic model is checked against (TestModelsAgree). It simulates every
// processor's 128 hardware streams executing the phase's tasks: a processor
// issues one ready operation per cycle, a memory operation parks its stream
// for MemLatency cycles, hotspot fetch-and-adds additionally serialize
// through a per-word token, and streams pull tasks from a shared queue as
// they finish — the XMT runtime's dynamic loop scheduling.
//
// It simulates op by op, so a phase of more than desMaxOps operations is
// refused: it fails the calling test, naming the phase, rather than being
// answered by some other model.
type DES struct {
	tb  testing.TB
	cfg Config
}

// desMaxOps bounds the operations the DES simulates in one phase.
const desMaxOps = 8 << 20

// NewDES returns a discrete-event model with the given configuration that
// fails tb on a phase it refuses to simulate.
func NewDES(tb testing.TB, cfg Config) *DES {
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	return &DES{tb: tb, cfg: cfg}
}

// Config returns the hardware parameters.
func (d *DES) Config() Config { return d.cfg }

// phaseOps is the number of operations the DES simulates for p: issue,
// memory and hotspot.
func phaseOps(p *trace.Phase) int64 { return p.Issue + p.Loads + p.Stores + p.HotTotal() }

// desTask is one task's remaining work inside the simulator.
type desTask struct {
	issue int64
	mem   int64
	hot   [trace.NumHotClasses]int64
}

func (t *desTask) done() bool {
	if t.issue > 0 || t.mem > 0 {
		return false
	}
	for _, h := range t.hot {
		if h > 0 {
			return false
		}
	}
	return true
}

// nextOp pops the next operation, interleaving memory ops evenly among
// issue ops so a task is neither all-latency-up-front nor all-at-the-end.
// Returned kind: 0 issue, 1 mem, 2.. hotspot class + 2.
func (t *desTask) nextOp() int {
	for c := range t.hot {
		if t.hot[c] > 0 {
			// Hotspot ops are interleaved first at a fixed cadence.
			if t.hot[c]*8 >= t.issue+t.mem || (t.issue == 0 && t.mem == 0) {
				t.hot[c]--
				return 2 + c
			}
			break
		}
	}
	if t.mem > 0 && (t.mem >= t.issue || t.issue == 0) {
		t.mem--
		return 1
	}
	t.issue--
	return 0
}

// streamEvent is a stream becoming ready at a given time.
type streamEvent struct {
	ready int64
	proc  int
	task  *desTask
}

type eventHeap []streamEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].ready < h[j].ready }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(streamEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PhaseCycles implements Model.
func (d *DES) PhaseCycles(p *trace.Phase, procs int) float64 {
	if procs <= 0 {
		procs = d.cfg.Procs
	}
	if ops := phaseOps(p); ops > desMaxOps {
		d.tb.Helper()
		d.tb.Fatalf("DES: phase %s[%d] has %d ops, over the %d-op cap", p.Name, p.Index, ops, desMaxOps)
	}
	tasks := materialize(p)
	overhead := float64(p.Barriers)*d.cfg.barrierCycles(procs) + float64(d.cfg.DispatchCycles)
	if len(tasks) == 0 {
		return overhead
	}

	L := int64(d.cfg.MemLatency)
	S := d.cfg.StreamsPerProc

	// Shared dynamic task queue.
	next := 0
	pull := func() *desTask {
		for next < len(tasks) {
			t := &tasks[next]
			next++
			if !t.done() {
				return t
			}
		}
		return nil
	}

	// Seed streams: round-robin tasks across processors' streams.
	var events eventHeap
	for proc := 0; proc < procs; proc++ {
		for s := 0; s < S; s++ {
			t := pull()
			if t == nil {
				break
			}
			events = append(events, streamEvent{ready: 0, proc: proc, task: t})
		}
	}
	heap.Init(&events)

	procNextIssue := make([]int64, procs)
	var hotNext [trace.NumHotClasses]int64
	var finish int64

	for events.Len() > 0 {
		ev := heap.Pop(&events).(streamEvent)
		if ev.task.done() {
			if t := pull(); t != nil {
				ev.task = t
			} else {
				if ev.ready > finish {
					finish = ev.ready
				}
				continue
			}
		}
		// The stream issues its next op at the first free issue slot of its
		// processor at or after its ready time.
		issueAt := ev.ready
		if procNextIssue[ev.proc] > issueAt {
			issueAt = procNextIssue[ev.proc]
		}
		procNextIssue[ev.proc] = issueAt + 1

		kind := ev.task.nextOp()
		var ready int64
		switch {
		case kind == 0: // pure issue op
			ready = issueAt + 1
		case kind == 1: // memory op
			ready = issueAt + 1 + L
		default: // hotspot fetch-and-add: serialize at the word, then latency
			c := kind - 2
			start := issueAt + 1
			if hotNext[c] > start {
				start = hotNext[c]
			}
			hotNext[c] = start + int64(d.cfg.HotspotCycles)
			ready = start + L
		}
		if ready > finish {
			finish = ready
		}
		heap.Push(&events, streamEvent{ready: ready, proc: ev.proc, task: ev.task})
	}
	return float64(finish) + overhead
}

// materialize converts a phase profile into concrete tasks: the phase's
// average costs, with one task carrying the recorded critical path and
// hotspot ops spread across tasks.
func materialize(p *trace.Phase) []desTask {
	n := p.Tasks
	if n <= 0 {
		if phaseOps(p) == 0 {
			return nil
		}
		n = 1
	}
	tasks := make([]desTask, n)
	issueEach := p.Issue / n
	memEach := (p.Loads + p.Stores) / n
	issueRem := p.Issue % n
	memRem := (p.Loads + p.Stores) % n
	for i := range tasks {
		tasks[i] = desTask{issue: issueEach, mem: memEach}
		if int64(i) < issueRem {
			tasks[i].issue++
		}
		if int64(i) < memRem {
			tasks[i].mem++
		}
	}
	// Grow task 0 to the recorded critical path, preserving mem fraction.
	if p.MaxTask > tasks[0].issue+tasks[0].mem {
		extra := p.MaxTask - tasks[0].issue - tasks[0].mem
		total := p.Issue + p.Loads + p.Stores
		if total > 0 {
			memShare := extra * (p.Loads + p.Stores) / total
			tasks[0].mem += memShare
			tasks[0].issue += extra - memShare
		} else {
			tasks[0].issue += extra
		}
	}
	for c := 0; c < int(trace.NumHotClasses); c++ {
		h := p.Hot[c]
		if h == 0 {
			continue
		}
		each := h / int64(len(tasks))
		rem := h % int64(len(tasks))
		for i := range tasks {
			tasks[i].hot[c] += each
			if int64(i) < rem {
				tasks[i].hot[c]++
			}
		}
	}
	return tasks
}
