package core

// Host-runtime observability hooks for the BSP engine. Everything here is
// gated on a single *obsRun pointer: a nil sink yields a nil *obsRun, and
// every per-superstep hook is one pointer comparison — no time syscalls,
// no allocation, no atomic traffic on the hot path (benchmark-verified
// against the engine benchmarks). Observability reads only values the
// engine computes anyway, so Result and the recorded XMT profile are
// bit-identical with or without a sink (see matrix_test.go).

import (
	"bytes"
	"os"
	"runtime"
	"time"

	"graphxmt/internal/graph"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

// Engine obs phase names: the host-side structure of one superstep, in
// execution order, mirroring parallel.go. "init" (step -1) is the
// InitialState sweep before superstep 0.
const (
	obsPhaseInit      = "init"
	obsPhaseCompute   = "compute"   // chunked Compute sweep (gathering, after a pull boundary) + unicast-log splice
	obsPhaseTerminate = "terminate" // chunk-partial merges + live-count termination check
	obsPhaseDeliver   = "deliver"   // counting-sort delivery / combining; O(frontier) stamping on a pull
	obsPhaseWorklist  = "worklist"  // sparse-activation worklist build

	// obsPhaseCheckpoint is emitted only when a checkpoint policy is
	// configured: the boundary's snapshot, and any wait for the previous
	// boundary's write (which otherwise runs beside the sweep).
	obsPhaseCheckpoint = "checkpoint"
)

// obsMemSampleGap is the least wall-clock time between two memory samples
// (the first superstep and the end of the run are always sampled): a
// sample stops the world for runtime.ReadMemStats and reads procfs, which
// a run of microsecond supersteps cannot pay every few supersteps, and a
// run of long ones is sampled every superstep as before.
const obsMemSampleGap = 10 * time.Millisecond

type obsRun struct {
	sink      obs.Sink
	start     time.Time
	timer     *par.WorkerTimer
	prevTimer *par.WorkerTimer
	// busy backs every span's WorkerBusy (sinks copy what they keep).
	busy     []time.Duration
	lastStep int
	// now is the end of the latest span; nextMem the earliest time of the
	// next memory sample.
	now, nextMem time.Time
}

// startObs opens an observed run; a nil return is the disabled state every
// hook checks.
func startObs(cfg *Config, g *graph.Graph) *obsRun {
	sink := cfg.Obs
	if sink == nil {
		return nil
	}
	w := par.Workers()
	o := &obsRun{
		sink:  sink,
		start: time.Now(),
		timer: par.NewWorkerTimer(w),
		busy:  make([]time.Duration, w),
	}
	o.prevTimer = par.SetTimer(o.timer)
	sink.RunStart(obs.RunInfo{
		Label:    "bsp",
		Workers:  w,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Lanes:    len(laneSourcesOf(cfg.Program)),
	})
	return o
}

// phase emits the span [t0, now) under name, carrying the per-worker busy
// time, chunk-granularity stats and regions folded since the previous phase
// boundary, and returns now.
func (o *obsRun) phase(name string, step int, t0 time.Time) time.Time {
	s := o.timer.Drain(o.busy)
	o.now = time.Now()
	o.sink.Span(obs.Span{
		Name:       name,
		Step:       step,
		Start:      t0.Sub(o.start),
		Dur:        o.now.Sub(t0),
		WorkerBusy: s.Busy,
		Chunks:     s.Chunks,
		MaxChunk:   s.MaxChunk,
		Regions:    s.Regions,
	})
	return o.now
}

// step emits the superstep counters and, when one is due, a memory sample.
func (o *obsRun) step(st obs.StepStats) {
	o.lastStep = st.Step
	o.sink.Step(st)
	if !o.now.Before(o.nextMem) {
		o.sampleMem(st.Step)
	}
}

func (o *obsRun) sampleMem(step int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.nextMem = o.now.Add(obsMemSampleGap)
	o.sink.Mem(obs.MemSample{
		Step:       step,
		At:         time.Since(o.start),
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		NumGC:      ms.NumGC,
		PauseTotal: time.Duration(ms.PauseTotalNs),
		VmHWM:      readVmHWM(),
	})
}

// readVmHWM reads the process peak RSS from /proc/self/status, in bytes.
// Heap figures from runtime.MemStats miss mmap'd graph pages (the
// compressed zero-copy load path), so peak RSS is the honest
// graph-resident number. Returns 0 (sample omitted from reports) on any
// failure — non-linux hosts have no procfs.
func readVmHWM() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	var buf [4096]byte // the whole file is ~1.5 KiB, and procfs hands it over in one read
	n, _ := f.Read(buf[:])
	_, rest, _ := bytes.Cut(buf[:n], []byte("VmHWM:"))
	var kb uint64
	for _, c := range bytes.TrimLeft(rest, " \t") {
		if c < '0' || c > '9' {
			break
		}
		kb = kb*10 + uint64(c-'0')
	}
	return kb << 10 // procfs reports kB
}

// finish restores the previous worker timer, takes a final memory sample,
// and closes the run. Deferred from Run so error exits also restore state.
func (o *obsRun) finish() {
	par.SetTimer(o.prevTimer)
	o.sampleMem(o.lastStep)
	o.sink.RunEnd(time.Since(o.start))
}

// flightDump asks the first obs.Store in the run's sink (if any) to dump
// its latest supersteps into dir, returning the written path. Best-effort:
// a missing store or a write failure yields "" — the dump must never mask
// the ProgramError it annotates. Safe on a nil *obsRun.
func (o *obsRun) flightDump(dir, cause string) string {
	if o == nil || dir == "" {
		return ""
	}
	stores := obs.Find[*obs.Store](o.sink)
	if len(stores) == 0 {
		return ""
	}
	path, err := stores[0].DumpFlight(dir, cause)
	if err != nil {
		return ""
	}
	return path
}

// scratchBytes approximates the engine's reusable scratch footprint: the
// run-level buffers (the inbox and the adjacency-buffer pool among them),
// the slots the superstep's unicast log fills — values and run headers, not
// the rest of a partial block, nor the blocks idle on the free list — plus
// every chunk's record buffer and segment list — re-measured only for the
// numChunks chunks that just ran, so a near-empty superstep after a
// 256-chunk one does not walk them all again.
// Called once per superstep, after the sweep's logs were spliced into
// sends, and only when a sink is attached.
func (s *runScratch) scratchBytes(numChunks int, t *traffic, ib *inbox, candidates, stamp []int64) int64 {
	const (
		recSize = 24 // bcastRec: three int64s
		segSize = 16 // logSeg: a block pointer and two int32s
	)
	b := t.sends.bytes() + int64(cap(t.bcasts))*recSize
	b += int64(cap(t.sends.segs)) * segSize
	b += int64(cap(ib.off)+cap(ib.val)+cap(ib.span)+cap(candidates)+cap(stamp)) * 8
	b += int64(cap(ib.look)+cap(ib.sent)) * 8
	b += int64(cap(s.sendOff)+cap(s.bcastOff)) * 8
	b += int64(cap(s.acc)+cap(ib.own)+cap(s.connected)) * 8
	b += int64(cap(s.counts)) * 4
	b += int64(cap(s.rangeCnt)+cap(s.sortScratch)+cap(s.bcastWork)) * 8
	b += int64(cap(s.bounds)+cap(s.ranges)+cap(s.pullBnds)+cap(s.shareBnds)) * 8
	for _, buf := range s.gather.free { // every buffer is back by the boundary
		b += int64(cap(buf)) * 8
	}
	for _, cs := range s.chunks[:numChunks] {
		was := cs.scratch
		cs.scratch = int64(cap(cs.eng.log.segs))*segSize + int64(cap(cs.eng.bcastBuf))*recSize
		s.chunkScratch += cs.scratch - was
	}
	return b + s.chunkScratch
}
