package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"graphxmt/internal/par"
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sizes    sizes
	dir      string
}

// sample is one session: its wall time, the resident-set peak it reached,
// and what the allocator and the collector did during it.
type sample struct {
	seconds    float64
	peakRSS    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// runWorkload sets one workload up, builds its oracle, then runs its
// session script in a closed loop: a block at w = min(nproc, 4) and a block
// at w = 1 with tracing off, and, when traced, a block with the engine sink
// attached. Every session's outputs are checked after its timer stops.
func runWorkload(rc runConfig) (*workloadResult, *tracer, error) {
	wallStart := time.Now()
	w, setupReps, err := newWorkload(rc.workload, rc.sizes)
	if err != nil {
		return nil, nil, err
	}
	// Never more workers than processors: a time-sliced worker measures the
	// scheduler, not the engine.
	workers := min(runtime.NumCPU(), 4)
	setWorkers := func(n int) (restore func()) {
		procs, pw := runtime.GOMAXPROCS(n), par.SetWorkers(n)
		return func() { runtime.GOMAXPROCS(procs); par.SetWorkers(pw) }
	}
	defer setWorkers(workers)()

	c := &ctx{seed: rc.seed, sz: rc.sizes, dir: rc.dir, steps: map[string][]float64{}, vals: map[string][]float64{}}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", rc.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	t0 := time.Now()
	if err := w.oracle(c, rc.traced); err != nil {
		return nil, nil, fmt.Errorf("%s: oracle: %w", rc.workload, err)
	}
	oracleS := time.Since(t0).Seconds()
	debug.FreeOSMemory()
	// The resident-set high-water mark is reset before every session, so
	// set-up never counts and each session yields its own peak. One peak
	// over the whole run would be the maximum of some twenty samples of
	// where the collector happened to be, which swings by 15% run to run;
	// the median of the sessions' peaks does not.
	rssScope := resetPeakRSS()

	tr := newTracer(rc.workload)
	attempted, failed := 0, 0
	session := func(t *tracer) (sample, error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resetPeakRSS()
		var endSession func()
		if t != nil {
			endSession = t.beginSession()
		}
		c.session++
		t0 := time.Now()
		err := w.session(c, t)
		d := time.Since(t0)
		if t != nil {
			endSession()
		}
		if err != nil {
			return sample{}, fmt.Errorf("%s: session: %w", rc.workload, err)
		}
		runtime.ReadMemStats(&m1)
		before := c.failedChecks
		w.check(c)
		attempted++
		if c.failedChecks > before {
			failed++
		}
		return sample{
			seconds:    d.Seconds(),
			peakRSS:    readPeakRSS(),
			allocBytes: m1.TotalAlloc - m0.TotalAlloc,
			gcCycles:   m1.NumGC - m0.NumGC,
			gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
		}, nil
	}
	// block runs sessions until its share of -seconds is spent, and at
	// least minSessions of them.
	block := func(name string, workers int, share float64, t *tracer) ([]sample, error) {
		defer setWorkers(workers)()
		c.block = name
		defer func() { c.block = "" }()
		deadline := time.Now().Add(time.Duration(share * rc.seconds * float64(time.Second)))
		var out []sample
		for len(out) < rc.sizes.minSessions || time.Now().Before(deadline) {
			s, err := session(t)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}

	// One untimed session first, so caches fill and lazy set-up finishes.
	if _, err := session(nil); err != nil {
		return nil, nil, err
	}
	shares := [3]float64{0.55, 0.45, 0}
	if rc.traced {
		shares = [3]float64{0.35, 0.25, 0.40}
	}
	wN, err := block("wN", workers, shares[0], nil)
	if err != nil {
		return nil, nil, err
	}
	w1, err := block("w1", 1, shares[1], nil)
	if err != nil {
		return nil, nil, err
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	var traced []sample
	if rc.traced {
		if traced, err = block("traced", workers, shares[2], tr); err != nil {
			return nil, nil, err
		}
	}

	wr := &workloadResult{
		Name: rc.workload,
		EndToEnd: map[string]stat{
			"setup_s":      summarize(setups),
			"session_s":    summarize(column(wN, sample.secs)),
			"session_w1_s": summarize(column(w1, sample.secs)),
			"peak_rss_mib": summarize(column(append(wN[:len(wN):len(wN)], w1...), func(s sample) float64 { return float64(s.peakRSS) / (1 << 20) })),
		},
		FailedFrac:        float64(failed) / float64(attempted),
		SessionsAttempted: attempted,
		SessionsFailed:    failed,
		OpsAttempted:      c.checks,
		OpsFailed:         c.failedChecks,
		Failures:          c.failures,
		Hashes:            c.hashes,
		OracleS:           oracleS,
		Workers:           workers,
		RSSScope:          rssScope,
	}
	if rc.traced {
		wr.PerLayer, wr.TracedShares = layerMetrics(c, tr, wr, wN, traced, float64(heap.HeapInuse)/(1<<20))
	}
	for _, set := range []struct {
		defs []metricDef
		m    map[string]stat
	}{{endToEndMetrics, wr.EndToEnd}, {perLayerMetrics, wr.PerLayer}} {
		for _, d := range set.defs {
			if s, ok := set.m[d.name]; ok {
				s.Unit = d.unit
				set.m[d.name] = s
			}
		}
	}
	wr.WallS = time.Since(wallStart).Seconds()
	return wr, tr, nil
}

func (s sample) secs() float64 { return s.seconds }

// column extracts one value from every sample.
func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// resetPeakRSS resets the process's resident-set high-water mark and
// reports what the mark covers from now on: "sessions", or "process" where
// the kernel does not allow the reset and set-up stays included.
func resetPeakRSS() (scope string) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "process"
	}
	return "sessions"
}

// readPeakRSS returns VmHWM from /proc/self/status in bytes, or 0 where
// the kernel does not expose it.
func readPeakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseUint(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// layerMetrics assembles every per-layer metric of one workload. Times
// named like a span are that span's total per traced session; set-up steps
// fill in where no session ran the layer; the rest are combined here.
// Anything the workload never exercised stays 0.
func layerMetrics(c *ctx, tr *tracer, wr *workloadResult, wN, traced []sample, heapInuseMiB float64) (map[string]stat, map[string]float64) {
	sessions := tr.sessionSpans()
	// spanS holds, per span name, each traced session's total duration.
	spanS := map[string][]float64{}
	for i, spans := range sessions {
		for _, s := range spans {
			if spanS[s.Name] == nil {
				spanS[s.Name] = make([]float64, len(sessions))
			}
			spanS[s.Name][i] += s.dur()
		}
	}
	self := make([]map[string]float64, len(sessions))
	for i, spans := range sessions {
		self[i] = selfTimes(spans)
	}
	// perSession summarizes a value computed from each traced session.
	perSession := func(f func(i int) float64) stat {
		vals := make([]float64, len(sessions))
		for i := range sessions {
			vals[i] = f(i)
		}
		return summarize(vals)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	val := func(name string) float64 { return summarize(c.vals[name]).Median }

	out := map[string]stat{}
	for _, d := range perLayerMetrics {
		switch {
		case spanS[d.name] != nil:
			out[d.name] = summarize(spanS[d.name])
		case c.steps[d.name] != nil:
			out[d.name] = summarize(c.steps[d.name])
		default:
			out[d.name] = summarize(c.vals[d.name]) // zero when never reported
		}
	}

	// gen / graph / graphio: per-edge and per-byte forms of the times above.
	rawEdges := val("raw_edges")
	out["gen.rmat_ns_per_edge"] = single(1e9 * ratio(out["gen.rmat_s"].Median, rawEdges))
	out["graph.build_ns_per_edge"] = single(1e9 * ratio(out["graph.build_s"].Median, rawEdges))
	out["graphio.read_mib_per_s"] = single(ratio(val("graphio.bytes_flat")/(1<<20), out["graphio.read_binary_s"].Median))

	// core: the engine's own spans and counters, relayed by engineSink.
	st := func(i int) *engineStats { return &tr.stats[i] }
	run := spanS["core.run_s"]
	if run != nil {
		phases := []string{"init", "compute", "terminate", "deliver", "worklist", "checkpoint"}
		out["core.unattributed_s"] = perSession(func(i int) float64 {
			rest := run[i]
			for _, p := range phases {
				if s := spanS["core."+p+"_s"]; s != nil {
					rest -= s[i]
				}
			}
			return rest
		})
		last := st(len(sessions) - 1)
		out["core.supersteps"] = single(float64(last.supersteps))
		out["core.msgs_logical"] = single(float64(last.logical))
		out["core.msgs_physical"] = single(float64(last.physical))
		out["core.msgs_delivered"] = single(float64(last.delivered))
		out["core.pull_steps"] = single(float64(last.pullSteps))
		out["core.scratch_mib_max"] = single(float64(last.scratchMax) / (1 << 20))
		out["core.ns_per_logical_edge"] = perSession(func(i int) float64 { return 1e9 * ratio(run[i], float64(st(i).logical)) })
		out["core.us_per_superstep"] = perSession(func(i int) float64 { return 1e6 * ratio(run[i], float64(st(i).supersteps)) })
		out["core.worker_busy_frac"] = perSession(func(i int) float64 { return ratio(st(i).busy.Seconds(), st(i).capacity.Seconds()) })
		out["core.chunk_imbalance"] = perSession(func(i int) float64 { return ratio(st(i).maxChunk.Seconds(), st(i).meanChunk.Seconds()) })
		out["core.allocs_per_superstep"] = perSession(func(i int) float64 { return ratio(float64(st(i).mallocs), float64(st(i).supersteps)) })
		out["core.alloc_bytes_per_edge"] = perSession(func(i int) float64 { return ratio(float64(st(i).allocBytes), float64(st(i).logical)) })
	}

	// bspalg: what the wrappers add around the engine, and traversal rates.
	out["bspalg.extract_s"] = perSession(func(i int) float64 { return self[i]["bspalg"] })
	if bfs := spanS["bspalg.bfs_s"]; bfs != nil && val("bfs_edges") > 0 {
		out["bspalg.bfs_mteps"] = perSession(func(i int) float64 { return ratio(val("bfs_edges")/1e6, bfs[i]) })
	}
	if ms := spanS["bspalg.msbfs_s"]; ms != nil {
		out["bspalg.msbfs_us_per_query"] = perSession(func(i int) float64 { return 1e6 * ratio(ms[i], val("batch.lanes")) })
	}

	// graphct and trace: the paper's headline ratio measured on the host,
	// and what recording the work profile costs the BSP kernels.
	for _, k := range []string{"cc", "bfs", "tc"} {
		if ct, bsp := spanS["graphct."+k+"_s"], spanS["bspalg."+k+"_s"]; ct != nil && bsp != nil {
			out["graphct.host_ratio_"+k] = perSession(func(i int) float64 { return ratio(bsp[i], ct[i]) })
		}
	}
	if spanS["bspalg.tc_norec"] != nil {
		// Pooled over an even number of sessions, so that both orders of the
		// recorded and unrecorded twins weigh the same.
		var rec, norec float64
		for i := 0; i < len(sessions)&^1; i++ {
			for _, k := range []string{"cc", "bfs", "tc"} {
				rec += spanS["bspalg."+k+"_s"][i]
				norec += spanS["bspalg."+k+"_norec"][i]
			}
		}
		out["trace.record_overhead_frac"] = single(ratio(rec, norec) - 1)
	}

	// ckpt: writes beside the compute.
	if ck, plain := spanS["bspalg.pagerank_ckpt"], spanS["bspalg.pagerank_s"]; ck != nil {
		out["ckpt.overhead_frac"] = perSession(func(i int) float64 { return ratio(ck[i]-plain[i], plain[i]) })
		write := spanS["core.checkpoint_s"]
		out["ckpt.write_mib_per_s"] = perSession(func(i int) float64 { return ratio(val("ckpt_bytes")/(1<<20), write[i]) })
	}

	// obs: the relay with and without sinks, from the untraced sessions;
	// and what this benchmark's own tracing costs.
	if nilS, sinks := val("relay_nil_s"), val("relay_sinks_s"); nilS > 0 {
		out["obs.sink_us_per_superstep"] = single(1e6 * ratio(sinks-nilS, val("relay_supersteps")))
		out["obs.sink_overhead_frac"] = single(ratio(sinks, nilS) - 1)
	}
	session := wr.EndToEnd["session_s"].Median
	out["obs.trace_overhead_frac"] = single(ratio(summarize(column(traced, sample.secs)).Median, session) - 1)

	// par: the w=1 -> w=N curve. Workers never outnumber processors
	// (runWorkload), so wall-clock scaling is meaningful.
	speedup := ratio(wr.EndToEnd["session_w1_s"].Median, session)
	out["par.workers"] = single(float64(wr.Workers))
	out["par.speedup"] = single(speedup)
	out["par.efficiency"] = single(speedup / float64(wr.Workers))

	// mem: allocator and collector activity of an untraced w=N session.
	out["mem.alloc_mib_per_session"] = summarize(column(wN, func(s sample) float64 { return float64(s.allocBytes) / (1 << 20) }))
	out["mem.gc_cycles_per_session"] = summarize(column(wN, func(s sample) float64 { return float64(s.gcCycles) }))
	out["mem.gc_pause_ms_per_session"] = summarize(column(wN, func(s sample) float64 { return float64(s.gcPauseNs) / 1e6 }))
	out["mem.heap_inuse_mib"] = single(heapInuseMiB)

	// Each layer's share of a traced session, by self time.
	shares := map[string]float64{}
	for i, spans := range sessions {
		total := spans[0].dur() // the session root is each session's first span
		for layer, s := range self[i] {
			shares[layer] += ratio(s, total) / float64(len(sessions))
		}
	}
	return out, shares
}
