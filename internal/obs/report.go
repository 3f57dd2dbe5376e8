package obs

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"graphxmt/internal/metrics"
)

// Report is the in-memory sink that renders a human-readable run report —
// the host-side analogue of the paper's per-phase figures, but in wall
// clock instead of simulated cycles: per run, a table of its first and
// last supersteps, then phase shares, chunk imbalance, regions, latency
// percentiles, worker utilization, batch amortization and memory. It
// records the stream in its own Store, which keeps per run only the
// MaxRows rows it will render and running totals for everything else, so
// a superstep costs it a few additions however long the run gets.
type Report struct {
	// MaxRows bounds the per-superstep table; longer runs elide the
	// middle. 0 selects 48. Read when a run starts.
	MaxRows int

	store Store
}

// NewReport returns an empty report sink.
func NewReport() *Report { return &Report{store: Store{report: true}} }

// RunStart implements Sink: the store keeps three quarters of the rows
// from a run's start, the rest from its end.
func (r *Report) RunStart(info RunInfo) {
	rows := cmp.Or(max(r.MaxRows, 0), 48)
	r.store.Head, r.store.Tail = rows*3/4, rows-rows*3/4
	r.store.RunStart(info)
}

// Span implements Sink. The store is fed and read on one goroutine, so
// the per-superstep events skip its lock.
func (r *Report) Span(s Span) {
	if run := r.store.cur; run != nil {
		run.span(&r.store, &s)
	}
}

// Step implements Sink.
func (r *Report) Step(st StepStats) {
	if run := r.store.cur; run != nil {
		run.step(&r.store, &st)
	}
}

// Mem implements Sink.
func (r *Report) Mem(m MemSample) { r.store.Mem(m) }

// RunEnd implements Sink.
func (r *Report) RunEnd(wall time.Duration) { r.store.RunEnd(wall) }

// Render writes the report for every observed run.
func (r *Report) Render(w io.Writer) error {
	if len(r.store.runs) == 0 {
		_, err := fmt.Fprintln(w, "obs: no runs observed")
		return err
	}
	for i, run := range r.store.runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		run.render(w)
	}
	return nil
}

func (r *storeRun) render(w io.Writer) {
	fmt.Fprintf(w, "== run %q: %d workers", r.info.Label, r.info.Workers)
	if r.info.Vertices > 0 {
		fmt.Fprintf(w, ", %d vertices, %d edges", r.info.Vertices, r.info.Edges)
	}
	if r.info.Lanes > 0 {
		fmt.Fprintf(w, ", %d lanes", r.info.Lanes)
	}
	fmt.Fprintf(w, ", wall %s ==\n", fmtDur(r.wall))

	// Per-superstep table: counters first, then one column per phase in
	// first-seen order.
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %9s %4s %10s", "step", "active", "sent", "phys", "delivered", "scratch", "dir", "front")
	if r.hasDelivery {
		fmt.Fprintf(w, " %-18s", "delivery")
	}
	if r.hasRetry {
		fmt.Fprintf(w, " %5s %5s", "retry", "stall")
	}
	if r.info.Lanes > 0 {
		fmt.Fprintf(w, " %5s", "lanes")
	}
	fmt.Fprintf(w, " %6s", "imbal")
	for _, ph := range r.phases {
		name := ph.name
		fmt.Fprintf(w, " %10s", name[max(0, len(name)-10):]) // phase names share long prefixes
	}
	fmt.Fprintln(w)
	prev := -1
	for i := range r.kept {
		if i > prev+1 {
			fmt.Fprintf(w, "%6s  ... %d supersteps elided ...\n", "", i-prev-1)
		}
		prev = i
		r.printRow(w, r.at(i))
	}

	fmt.Fprintf(w, "phases:")
	for _, ph := range r.phases {
		fmt.Fprintf(w, "  %s %s (%.0f%%)", ph.name, fmtDur(ph.total), pct(ph.total, r.wall))
	}
	fmt.Fprintln(w)

	// Per phase: the longest chunk over the mean chunk (on "compute", a
	// large factor is one vertex's adjacency, a star's hub), and the
	// parallel regions per span, absent when nothing forked.
	imbalance, regions, forked := "", "", false
	for _, ph := range r.phases {
		if ph.chunks > 0 {
			imbalance += fmt.Sprintf("  %s %s (%d chunks, max %s)",
				ph.name, fmtImbalance(ph.chunks, ph.busy, ph.maxChunk), ph.chunks, fmtDur(ph.maxChunk))
		}
		regions += fmt.Sprintf("  %s %.2f", ph.name, float64(ph.regions)/float64(ph.spans))
		forked = forked || ph.regions > 0
	}
	if imbalance != "" {
		fmt.Fprintf(w, "chunk imbalance (max/mean):%s\n", imbalance)
	}
	if forked {
		fmt.Fprintf(w, "regions/step:%s\n", regions)
	}

	// Latency percentiles through the log2 histograms /metrics exposes:
	// superstep wall (stepFold) and the deliver phase alone.
	latency := ""
	for _, h := range []struct {
		name string
		hist *metrics.Histogram
	}{{"superstep", r.stepWall}, {"deliver", r.deliver}} {
		if h.hist.Count() > 0 {
			q := func(p float64) string { return fmtDur(time.Duration(h.hist.Quantile(p)) * time.Microsecond) }
			latency += fmt.Sprintf("  %s p50/p90/p99 %s/%s/%s", h.name, q(0.5), q(0.9), q(0.99))
		}
	}
	if latency != "" {
		fmt.Fprintf(w, "latency: %s\n", latency)
	}

	// Worker busy time over run wall: low means sequential paths or
	// starved workers.
	if len(r.busy) > 0 {
		fmt.Fprintf(w, "worker busy/wall:")
		for wkr, b := range r.busy {
			fmt.Fprintf(w, "  w%d %s (%.0f%%)", wkr, fmtDur(b), pct(b, r.wall))
		}
		fmt.Fprintln(w)
	}

	// Batch amortization: one lane-packed send serves every lane, so the
	// per-query edge cost is the logical sends over lane occupancy.
	if r.info.Lanes > 0 {
		fmt.Fprintf(w, "batch: %d lanes, %d lane-packed sends, %.0f amortized edge traversals/query\n",
			r.info.Lanes, r.sent, float64(r.sent)/float64(r.info.Lanes))
	}

	if r.memSamples > 0 {
		fmt.Fprintf(w, "mem: heap %s -> %s (peak %s), %d GCs, %s pause",
			fmtBytes(r.memFirst.HeapAlloc), fmtBytes(r.memLast.HeapAlloc), fmtBytes(r.memPeak),
			r.memLast.NumGC-r.memFirst.NumGC, fmtDur(r.memLast.PauseTotal-r.memFirst.PauseTotal))
		// Peak RSS covers the mmap'd CSR2 sections heap figures miss.
		if r.memLast.VmHWM > 0 {
			fmt.Fprintf(w, ", rss peak %s", fmtBytes(r.memLast.VmHWM))
		}
		fmt.Fprintln(w)
	}
}

// printRow renders one record as a table row: its counters, then its
// spans summed per phase column.
func (r *storeRun) printRow(w io.Writer, rec *record) {
	st := &rec.st
	if rec.stats {
		fmt.Fprintf(w, "%6d %10d %10d %10d %10d %9s %4s %10d", st.Step, st.Active, st.Sent, st.SentPhysical, st.Delivered,
			fmtBytes(uint64(st.ScratchBytes)), cmp.Or(st.Direction, "-"), st.FrontierEdges)
	} else {
		fmt.Fprintf(w, "%6d %10s %10s %10s %10s %9s %4s %10s", st.Step, "-", "-", "-", "-", "-", "-", "-")
	}
	if r.hasDelivery {
		fmt.Fprintf(w, " %-18s", cmp.Or(st.Delivery, "-"))
	}
	if r.hasRetry {
		stall := "-"
		if st.Stalled {
			stall = "yes"
		}
		fmt.Fprintf(w, " %5d %5s", st.Retries, stall)
	}
	if r.info.Lanes > 0 {
		if rec.stats {
			fmt.Fprintf(w, " %5d", st.Lanes)
		} else {
			fmt.Fprintf(w, " %5s", "-")
		}
	}
	// The imbal column: the step's longest chunk over its mean chunk.
	var chunks int64
	var busy, maxChunk time.Duration
	phases := make([]time.Duration, len(r.phases))
	seen := make([]bool, len(r.phases))
	for _, sp := range rec.spans {
		if sp.Step != st.Step {
			continue // the engine's init, filed with superstep 0
		}
		pi := r.phase(sp.Name)
		phases[pi] += sp.Dur
		seen[pi] = true
		if sp.Chunks > 0 {
			chunks += sp.Chunks
			for _, b := range sp.WorkerBusy {
				busy += b
			}
			maxChunk = max(maxChunk, sp.MaxChunk)
		}
	}
	fmt.Fprintf(w, " %6s", fmtImbalance(chunks, busy, maxChunk))
	for pi := range r.phases {
		if seen[pi] {
			fmt.Fprintf(w, " %10s", fmtDur(phases[pi]))
		} else {
			fmt.Fprintf(w, " %10s", "-")
		}
	}
	fmt.Fprintln(w)
}

// fmtImbalance renders max-chunk over mean-chunk as "N.Nx", or "-" when no
// chunks were timed.
func fmtImbalance(chunks int64, busy, maxChunk time.Duration) string {
	if chunks == 0 || busy <= 0 {
		return "-"
	}
	mean := float64(busy) / float64(chunks)
	return fmt.Sprintf("%.1fx", float64(maxChunk)/mean)
}

// pct is d as a percentage of whole, 0 when whole is not positive.
func pct(d, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(whole)
}

// fmtDur renders a duration with ~3 significant digits.
func fmtDur(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
