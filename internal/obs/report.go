package obs

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"graphxmt/internal/metrics"
)

// Report is the in-memory aggregating sink: it folds the event stream into
// per-run, per-superstep tables and renders a human-readable run report —
// the host-side analogue of the paper's per-phase figures, but in wall
// clock instead of simulated cycles. What it keeps per run is bounded: the
// MaxRows rows it will render and running totals for everything else, so a
// superstep costs it a few additions however long the run gets.
type Report struct {
	// MaxRows bounds the per-superstep table; longer runs elide the
	// middle. 0 selects 48. Read when a run starts.
	MaxRows int

	runs []*reportRun
	cur  *reportRun
}

type reportRun struct {
	info RunInfo
	wall time.Duration

	// phases holds the run totals per phase name, in first-seen order; a
	// row's phases are indexed by the same position.
	phases     []phaseStat
	busyTotals []time.Duration

	// rows are the supersteps the table will show: the first headN opened
	// stay in rows[:headN], the latest cap(rows)-headN cycle through the
	// rest. opened counts every row ever opened, last is the one touched
	// most recently and maxStep the highest step seen (a superstep's
	// events arrive together, in step order, so both lookups almost
	// always hit). A row that leaves the table is folded into stepWall,
	// deliver and sent first; RunEnd folds the ones still in it.
	rows              []stepRow
	headN             int
	opened, last      int
	maxStep           int
	sent              int64
	stepWall, deliver *metrics.Histogram
	// hasDir marks that at least one superstep carried a direction
	// decision; the dir/front/unvis columns render only then, so runs
	// without the direction layer keep the legacy table shape.
	hasDir bool
	// hasDelivery marks that at least one superstep named its delivery
	// path (a BSP engine run); the delivery column renders only then.
	hasDelivery bool
	// hasRetry marks that at least one superstep was retried or stalled;
	// the retry/stall columns render only then — clean runs (supervised
	// or not) keep the legacy table shape.
	hasRetry bool
	// hasLanes marks a batched multi-source run (RunInfo.Lanes > 0); the
	// lanes column and the batch amortization footer render only then.
	hasLanes bool

	memFirst, memLast MemSample
	memPeak           uint64
	memSamples        int
}

// phaseStat is one phase name's run totals, the chunk-granularity
// imbalance stats among them (folded from the spans' Chunks / MaxChunk /
// WorkerBusy fields).
type phaseStat struct {
	name     string
	total    time.Duration
	chunks   int64
	busy     time.Duration
	maxChunk time.Duration
}

type stepRow struct {
	step                              int
	active, sent, physical, delivered int64
	scratch                           int64
	direction, delivery               string
	frontier, unvisited               int64
	retries                           int64
	stalled                           bool
	lanes                             int64
	hasStats                          bool
	// phases is indexed like reportRun.phases; negative means the row has
	// no span of that phase.
	phases []time.Duration

	// Per-step chunk stats across the step's timed spans, for the imbal
	// column (max single chunk over mean chunk busy time).
	chunks   int64
	busy     time.Duration
	maxChunk time.Duration
}

// NewReport returns an empty report sink.
func NewReport() *Report { return &Report{} }

// RunStart implements Sink.
func (r *Report) RunStart(info RunInfo) {
	maxRows := r.MaxRows
	if maxRows <= 0 {
		maxRows = 48
	}
	r.cur = &reportRun{
		info:     info,
		rows:     make([]stepRow, 0, maxRows),
		headN:    maxRows * 3 / 4,
		maxStep:  -1,
		stepWall: metrics.NewHistogram(metrics.DurationBounds),
		deliver:  metrics.NewHistogram(metrics.DurationBounds),
		hasLanes: info.Lanes > 0,
	}
	r.runs = append(r.runs, r.cur)
}

// phase returns the position of the named phase, appending it on first
// sight. Runs have a handful of phase names; a scan beats hashing them.
func (r *reportRun) phase(name string) int {
	for i := range r.phases {
		if r.phases[i].name == name {
			return i
		}
	}
	r.phases = append(r.phases, phaseStat{name: name})
	return len(r.phases) - 1
}

// row returns the table row of a superstep, opening one — in the place of
// the oldest row past the head, once the table is full — if it has none.
// It returns nil for a superstep whose row has left the table: a late
// event for it counts toward the run totals only.
func (r *reportRun) row(step int) *stepRow {
	if step <= r.maxStep {
		if r.rows[r.last].step == step {
			return &r.rows[r.last]
		}
		for i := range r.rows {
			if r.rows[i].step == step {
				r.last = i
				return &r.rows[i]
			}
		}
		if r.opened > len(r.rows) {
			return nil
		}
	}
	r.maxStep = max(r.maxStep, step)
	if r.opened < cap(r.rows) {
		r.last = r.opened
		r.rows = append(r.rows, stepRow{})
	} else {
		r.last = r.headN + (r.opened-r.headN)%(cap(r.rows)-r.headN)
		r.fold(&r.rows[r.last])
	}
	r.opened++
	row := &r.rows[r.last]
	*row = stepRow{step: step, phases: row.phases[:0]}
	return row
}

// fold adds a row that is complete — no further event will name its
// superstep — to the run-level figures computed from whole rows: the
// latency histograms (superstep wall is the engine phases; the checkpoint
// span is I/O, not superstep work) and the logical send total.
func (r *reportRun) fold(row *stepRow) {
	var wall time.Duration
	for i, d := range row.phases {
		if d < 0 {
			continue
		}
		switch r.phases[i].name {
		case obsCheckpointPhase:
			continue
		case "deliver":
			r.deliver.Observe(d.Microseconds())
		}
		wall += d
	}
	if wall > 0 {
		r.stepWall.Observe(wall.Microseconds())
	}
	r.sent += row.sent
}

// Span implements Sink.
func (r *Report) Span(s Span) {
	run := r.cur
	if run == nil {
		return
	}
	pi := run.phase(s.Name)
	ph := &run.phases[pi]
	ph.total += s.Dur
	for len(run.busyTotals) < len(s.WorkerBusy) {
		run.busyTotals = append(run.busyTotals, 0)
	}
	var busy time.Duration
	for w, b := range s.WorkerBusy {
		run.busyTotals[w] += b
		busy += b
	}
	if s.Chunks > 0 {
		ph.chunks += s.Chunks
		ph.busy += busy
		ph.maxChunk = max(ph.maxChunk, s.MaxChunk)
	}
	if s.Step < 0 {
		return
	}
	row := run.row(s.Step)
	if row == nil {
		return
	}
	for len(row.phases) <= pi {
		row.phases = append(row.phases, -1)
	}
	row.phases[pi] = max(row.phases[pi], 0) + s.Dur
	if s.Chunks > 0 {
		row.chunks += s.Chunks
		row.busy += busy
		row.maxChunk = max(row.maxChunk, s.MaxChunk)
	}
}

// Step implements Sink.
func (r *Report) Step(st StepStats) {
	run := r.cur
	if run == nil {
		return
	}
	if st.Direction != "" {
		run.hasDir = true
	}
	if st.Delivery != "" {
		run.hasDelivery = true
	}
	if st.Retries > 0 || st.Stalled {
		run.hasRetry = true
	}
	row := run.row(st.Step)
	if row == nil {
		run.sent += st.Sent
		return
	}
	row.active, row.sent, row.physical, row.delivered = st.Active, st.Sent, st.SentPhysical, st.Delivered
	row.scratch = st.ScratchBytes
	row.direction, row.frontier, row.unvisited = st.Direction, st.FrontierEdges, st.UnvisitedEdges
	row.delivery = st.Delivery
	row.retries, row.stalled = st.Retries, st.Stalled
	row.lanes = st.Lanes
	row.hasStats = true
}

// Mem implements Sink.
func (r *Report) Mem(m MemSample) {
	run := r.cur
	if run == nil {
		return
	}
	if run.memSamples == 0 {
		run.memFirst = m
	}
	run.memLast = m
	if m.HeapAlloc > run.memPeak {
		run.memPeak = m.HeapAlloc
	}
	run.memSamples++
}

// RunEnd implements Sink.
func (r *Report) RunEnd(wall time.Duration) {
	if r.cur != nil {
		r.cur.wall = wall
		for i := range r.cur.rows {
			r.cur.fold(&r.cur.rows[i])
		}
		r.cur = nil
	}
}

// Render writes the report for every observed run.
func (r *Report) Render(w io.Writer) error {
	for i, run := range r.runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := run.render(w); err != nil {
			return err
		}
	}
	if len(r.runs) == 0 {
		_, err := fmt.Fprintln(w, "obs: no runs observed")
		return err
	}
	return nil
}

func (r *reportRun) render(w io.Writer) error {
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
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %9s", "step", "active", "sent", "phys", "delivered", "scratch")
	if r.hasDir {
		fmt.Fprintf(w, " %4s %10s %10s", "dir", "front", "unvis")
	}
	if r.hasDelivery {
		fmt.Fprintf(w, " %-18s", "delivery")
	}
	if r.hasRetry {
		fmt.Fprintf(w, " %5s %5s", "retry", "stall")
	}
	if r.hasLanes {
		fmt.Fprintf(w, " %5s", "lanes")
	}
	fmt.Fprintf(w, " %6s", "imbal")
	for _, ph := range r.phases {
		fmt.Fprintf(w, " %10s", tail(ph.name, 10))
	}
	fmt.Fprintln(w)
	rows := r.rows
	if elided := r.opened - len(rows); elided > 0 {
		r.printRows(w, rows[:r.headN])
		fmt.Fprintf(w, "%6s  ... %d supersteps elided ...\n", "", elided)
		// The rest is a ring.
		newest := r.headN + (r.opened-1-r.headN)%(len(rows)-r.headN)
		r.printRows(w, rows[newest+1:])
		rows = rows[r.headN : newest+1]
	}
	r.printRows(w, rows)

	// Phase totals with share of wall time.
	fmt.Fprintf(w, "phases:")
	for _, ph := range r.phases {
		share := 0.0
		if r.wall > 0 {
			share = 100 * float64(ph.total) / float64(r.wall)
		}
		fmt.Fprintf(w, "  %s %s (%.0f%%)", ph.name, fmtDur(ph.total), share)
	}
	fmt.Fprintln(w)

	// Load imbalance per phase: the run's longest single chunk over the
	// mean chunk busy time. 1.0x means perfectly even chunks. The engine's
	// sweep chunks are degree-weighted, so a large factor on "compute" is
	// one vertex's own adjacency (a star's hub), which no vertex partition
	// can split.
	if imb := r.imbalanceLine(); imb != "" {
		fmt.Fprintf(w, "chunk imbalance (max/mean):%s\n", imb)
	}

	// Superstep latency percentiles, estimated through the same log2
	// histograms the live /metrics endpoint exposes: superstep wall (the
	// engine phases; the checkpoint span is I/O, not superstep work) and
	// the deliver phase alone, the superstep-boundary cost the paper's
	// message-volume figures are about.
	if line := r.latencyLine(); line != "" {
		fmt.Fprintf(w, "latency: %s\n", line)
	}

	// Worker utilization: busy folded from par's chunk timing, divided by
	// run wall time. Low numbers on a multi-worker run mean the phases ran
	// sequential paths or the workers starved.
	if len(r.busyTotals) > 0 {
		fmt.Fprintf(w, "worker busy/wall:")
		for wkr, b := range r.busyTotals {
			util := 0.0
			if r.wall > 0 {
				util = 100 * float64(b) / float64(r.wall)
			}
			fmt.Fprintf(w, "  w%d %s (%.0f%%)", wkr, fmtDur(b), util)
		}
		fmt.Fprintln(w)
	}

	// Batch amortization: one lane-packed broadcast serves every lane
	// crossing the edge that superstep, so the per-query edge cost is the
	// run's logical sends divided by lane occupancy — the figure the MS-BFS
	// layer exists to shrink.
	if r.info.Lanes > 0 {
		fmt.Fprintf(w, "batch: %d lanes, %d lane-packed sends, %.0f amortized edge traversals/query\n",
			r.info.Lanes, r.sent, float64(r.sent)/float64(r.info.Lanes))
	}

	if r.memSamples > 0 {
		gcs := r.memLast.NumGC - r.memFirst.NumGC
		pause := r.memLast.PauseTotal - r.memFirst.PauseTotal
		fmt.Fprintf(w, "mem: heap %s -> %s (peak %s), %d GCs, %s pause",
			fmtBytes(r.memFirst.HeapAlloc), fmtBytes(r.memLast.HeapAlloc),
			fmtBytes(r.memPeak), gcs, fmtDur(pause))
		// Peak RSS covers what heap figures miss — mmap'd graph sections
		// under the zero-copy CSR2 load path. Zero when procfs is absent.
		if r.memLast.VmHWM > 0 {
			fmt.Fprintf(w, ", rss peak %s", fmtBytes(r.memLast.VmHWM))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func (r *reportRun) printRows(w io.Writer, rows []stepRow) {
	for i := range rows {
		row := &rows[i]
		if row.hasStats {
			fmt.Fprintf(w, "%6d %10d %10d %10d %10d %9s", row.step, row.active, row.sent, row.physical, row.delivered, fmtBytes(uint64(row.scratch)))
		} else {
			fmt.Fprintf(w, "%6d %10s %10s %10s %10s %9s", row.step, "-", "-", "-", "-", "-")
		}
		if r.hasDir {
			if row.direction != "" {
				fmt.Fprintf(w, " %4s %10d %10d", row.direction, row.frontier, row.unvisited)
			} else {
				fmt.Fprintf(w, " %4s %10s %10s", "-", "-", "-")
			}
		}
		if r.hasDelivery {
			fmt.Fprintf(w, " %-18s", cmp.Or(row.delivery, "-"))
		}
		if r.hasRetry {
			stall := "-"
			if row.stalled {
				stall = "yes"
			}
			fmt.Fprintf(w, " %5d %5s", row.retries, stall)
		}
		if r.hasLanes {
			if row.hasStats {
				fmt.Fprintf(w, " %5d", row.lanes)
			} else {
				fmt.Fprintf(w, " %5s", "-")
			}
		}
		fmt.Fprintf(w, " %6s", fmtImbalance(row.chunks, row.busy, row.maxChunk))
		for pi := range r.phases {
			if pi < len(row.phases) && row.phases[pi] >= 0 {
				fmt.Fprintf(w, " %10s", fmtDur(row.phases[pi]))
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// latencyLine renders run-level p50/p90/p99 for superstep wall and the
// deliver phase, or "" when no superstep carried phase timing. The
// estimates go through metrics.Histogram (log2 buckets, interpolated), so
// the report footer and a /metrics scrape of the same run quote the same
// numbers.
func (r *reportRun) latencyLine() string {
	out := ""
	for _, h := range []struct {
		name string
		hist *metrics.Histogram
	}{{"superstep", r.stepWall}, {"deliver", r.deliver}} {
		if h.hist.Count() == 0 {
			continue
		}
		out += fmt.Sprintf("  %s p50/p90/p99 %s/%s/%s", h.name,
			fmtDur(time.Duration(h.hist.Quantile(0.5))*time.Microsecond),
			fmtDur(time.Duration(h.hist.Quantile(0.9))*time.Microsecond),
			fmtDur(time.Duration(h.hist.Quantile(0.99))*time.Microsecond))
	}
	return out
}

// imbalanceLine renders the per-phase max/mean chunk factors in phase
// order, or "" when no chunk timing was collected.
func (r *reportRun) imbalanceLine() string {
	out := ""
	for _, ph := range r.phases {
		if ph.chunks == 0 {
			continue
		}
		out += fmt.Sprintf("  %s %s (%d chunks, max %s)",
			ph.name, fmtImbalance(ph.chunks, ph.busy, ph.maxChunk), ph.chunks, fmtDur(ph.maxChunk))
	}
	return out
}

// fmtImbalance renders max-chunk over mean-chunk as "N.Nx", or "-" when no
// chunks were timed or the mean rounds to zero.
func fmtImbalance(chunks int64, busy, maxChunk time.Duration) string {
	if chunks == 0 || busy <= 0 {
		return "-"
	}
	mean := float64(busy) / float64(chunks)
	if mean <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(maxChunk)/mean)
}

// tail truncates s to its last n runes (phase names share long prefixes).
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
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
