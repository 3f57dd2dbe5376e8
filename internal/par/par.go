// Package par provides the host-side parallel primitives used to execute
// graph kernels for real while the Cray XMT machine model accounts for
// simulated time. Everything here affects only host wall-clock speed and
// never the simulated results: simulated time is a pure function of the work
// profile a kernel records, so kernels must produce identical answers and
// identical profiles whether par runs them on 1 or N host cores.
//
// The primitives mirror the loop-level parallelism GraphCT relies on on the
// XMT: flat parallel-for over index ranges, reductions, and prefix sums.
//
// Every parallel loop in the package is one call of a single fork/join, run:
// it hands a fixed number of tasks to at most Workers() workers, the calling
// goroutine among them, and returns when all are done. A region is one call
// of run that actually forks — more than one worker and more than one task;
// a call that runs inline (one worker, or at most one task) is not one.
// Regions are what a barrier costs the host, so an installed WorkerTimer
// counts them alongside the busy time it folds.
package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxProcs is the number of host workers used by default. It is a variable
// so tests can force sequential or oversubscribed execution.
var maxProcs = runtime.GOMAXPROCS(0)

// SetWorkers overrides the number of host workers (<=0 restores the
// default). It returns the previous value. Intended for tests.
func SetWorkers(n int) int {
	old := maxProcs
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	maxProcs = n
	return old
}

// Workers reports the current number of host workers.
func Workers() int { return maxProcs }

// grainSize is the minimum number of iterations worth shipping to another
// goroutine; below this, spawning costs more than it saves.
const grainSize = 2048

// WorkerTimer accumulates per-worker busy time: the wall-clock time each
// host worker spent inside loop bodies, folded chunk by chunk. It also
// tracks chunk-granularity statistics (chunk count and the single longest
// chunk) so observers can report load imbalance — max over mean per-chunk
// busy time — per phase, and counts the regions forked. It exists for the
// observability layer (package obs) — installing a timer changes only what
// is measured, never what is computed, so the determinism invariant is
// untouched. Slots are cache-line padded so concurrent workers don't
// false-share.
type WorkerTimer struct {
	slots   []timerSlot
	regions atomic.Int64
}

type timerSlot struct {
	ns     int64
	chunks int64
	maxNs  int64
	_      [5]int64 // pad to a 64-byte line
}

// NewWorkerTimer returns a timer for the given worker count.
func NewWorkerTimer(workers int) *WorkerTimer {
	if workers < 1 {
		workers = 1
	}
	return &WorkerTimer{slots: make([]timerSlot, workers)}
}

// Add folds d into worker w's busy time, counting one chunk. Out-of-range
// workers are dropped (the timer was sized for a different configuration).
func (t *WorkerTimer) Add(w int, d time.Duration) {
	if w < 0 || w >= len(t.slots) {
		return
	}
	s := &t.slots[w]
	atomic.AddInt64(&s.ns, int64(d))
	atomic.AddInt64(&s.chunks, 1)
	for {
		cur := atomic.LoadInt64(&s.maxNs)
		if int64(d) <= cur || atomic.CompareAndSwapInt64(&s.maxNs, cur, int64(d)) {
			return
		}
	}
}

// Sample is what a WorkerTimer folded between two drains.
type Sample struct {
	// Busy is each worker's busy time: the buffer passed to Drain.
	Busy []time.Duration
	// Chunks is the number of chunks timed, across all workers.
	Chunks int64
	// MaxChunk is the single longest chunk.
	MaxChunk time.Duration
	// Regions is the number of regions forked.
	Regions int64
}

// Drain moves everything accumulated since the last drain into a Sample
// and resets the timer. Busy times go into busy (one entry per worker,
// truncated to len(busy)), which the Sample returns. Callers drain at phase
// boundaries to get per-phase figures. A slot nothing was added to since
// the last drain — every slot, in most phases of a near-empty superstep —
// costs one load, not three locked writes.
func (t *WorkerTimer) Drain(busy []time.Duration) Sample {
	s := Sample{Busy: busy}
	if t.regions.Load() != 0 {
		s.Regions = t.regions.Swap(0)
	}
	for w := range t.slots {
		sl := &t.slots[w]
		var ns int64
		if atomic.LoadInt64(&sl.chunks) != 0 { // Add counts a chunk with every duration
			ns = atomic.SwapInt64(&sl.ns, 0)
			s.Chunks += atomic.SwapInt64(&sl.chunks, 0)
			s.MaxChunk = max(s.MaxChunk, time.Duration(atomic.SwapInt64(&sl.maxNs, 0)))
		}
		if w < len(busy) {
			busy[w] = time.Duration(ns)
		}
	}
	return s
}

// curTimer is the installed timer; nil (the default) means "don't
// measure", and the only hot-path cost is one atomic pointer load per
// parallel loop plus a nil check per chunk.
var curTimer atomic.Pointer[WorkerTimer]

// SetTimer installs t as the process's busy-time collector (nil uninstalls)
// and returns the previous timer so callers can nest and restore. One
// observed kernel at a time: concurrent observed runs would fold into
// whichever timer is installed last.
func SetTimer(t *WorkerTimer) *WorkerTimer {
	return curTimer.Swap(t)
}

// run is the package's one fork/join: it calls body(i) for every task i in
// [0, tasks) and returns when all have returned. With one worker or at most
// one task it runs them inline, and an installed timer folds the whole call
// into worker 0 as one chunk. Otherwise it starts min(workers, tasks)-1
// goroutines, the caller joining in as worker 0, and the workers claim
// tasks in index order from one counter — dynamic scheduling, which handles
// the skewed work of scale-free graphs (one task may hold a vertex with a
// million-edge adjacency list) — each task timed as one chunk.
func run(tasks int, body func(i int)) {
	timer := curTimer.Load()
	workers := min(maxProcs, tasks)
	if workers <= 1 {
		var start time.Time
		if timer != nil {
			start = time.Now()
		}
		for i := 0; i < tasks; i++ {
			body(i)
		}
		if timer != nil {
			timer.Add(0, time.Since(start))
		}
		return
	}
	if timer != nil {
		timer.regions.Add(1)
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			if timer == nil {
				body(i)
				continue
			}
			start := time.Now()
			body(i)
			timer.Add(w, time.Since(start))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// ForChunked partitions [0, n) into contiguous chunks and runs body(lo, hi)
// for each chunk, potentially in parallel. It is the form for hot loops of
// tiny iterations: with one worker, or at most grainSize iterations, the
// whole range is one chunk; otherwise chunks are a grainSize or more, about
// eight per worker.
func ForChunked(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := n
	if maxProcs > 1 && n > grainSize {
		chunk = max(n/(maxProcs*8), grainSize)
	}
	run((n+chunk-1)/chunk, func(c int) {
		lo := c * chunk
		body(lo, min(lo+chunk, n))
	})
}

// ForCoarse runs body(i) for every i in [0, n), potentially in parallel,
// with one task per iteration. Unlike ForChunked, which assumes
// per-iteration work is tiny and batches iterations by grainSize, ForCoarse
// is for coarse-grained bodies (whole chunks, per-chunk merges) where even a
// handful of iterations are worth distributing across workers.
func ForCoarse(n int, body func(i int)) {
	run(n, body)
}

// ForFixedChunks partitions [0, n) into chunks of exactly chunkSize (the
// last chunk may be short) and runs body(c, lo, hi) for every chunk c,
// potentially in parallel. The chunk boundaries depend only on n and
// chunkSize — never on the worker count — so callers that accumulate
// per-chunk partial results and merge them in chunk index order get output
// that is bit-identical whether par runs on 1 or N host cores. This is the
// deterministic-merge building block the BSP engine's host-parallel
// supersteps are built on.
func ForFixedChunks(n, chunkSize int, body func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunkSize <= 0 {
		chunkSize = grainSize
	}
	numChunks := (n + chunkSize - 1) / chunkSize
	ForCoarse(numChunks, func(c int) {
		lo := c * chunkSize
		body(c, lo, min(lo+chunkSize, n))
	})
}

// ForBoundaryChunks runs body(c, boundaries[c], boundaries[c+1]) for every
// chunk c in [0, len(boundaries)-1), potentially in parallel. boundaries
// must be non-decreasing. It is the weighted twin of ForFixedChunks: the
// caller supplies explicit chunk boundaries (typically from
// WeightedBoundaries over a work prefix sum), and the same determinism
// contract applies — as long as the boundaries themselves are computed
// from worker-independent quantities, per-chunk partials merged in chunk
// index order are bit-identical at any worker count.
func ForBoundaryChunks(boundaries []int, body func(c, lo, hi int)) {
	numChunks := len(boundaries) - 1
	if numChunks <= 0 {
		return
	}
	ForCoarse(numChunks, func(c int) {
		body(c, boundaries[c], boundaries[c+1])
	})
}

// WeightedBoundaries splits [0, n) into at most maxChunks contiguous chunks
// of near-equal weight and appends the chunk boundaries to dst (reusing its
// capacity). prefix is the monotone non-decreasing work prefix: prefix(i)
// is the total weight of items [0, i), so prefix(n) is the total weight —
// the CSR degree prefix sum (graph.Offsets) is exactly this shape. The
// returned boundaries start at 0, end at n, are strictly increasing (empty
// chunks are elided, so a single item heavier than a whole chunk target
// gets a chunk to itself), and depend only on n, maxChunks, and the prefix
// values — never on the worker count.
func WeightedBoundaries(dst []int, n, maxChunks int, prefix func(i int) int64) []int {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	if maxChunks < 1 {
		maxChunks = 1
	}
	dst = append(dst, 0)
	total := prefix(n)
	if total <= 0 || maxChunks == 1 {
		return append(dst, n)
	}
	lo := 0
	for c := 1; c < maxChunks; c++ {
		// Chunk c-1 ends at the smallest i with prefix(i) >= c*total/maxChunks
		// (integer-rounded target). Binary search over [lo, n].
		target := total * int64(c) / int64(maxChunks)
		b := lo + sort.Search(n-lo, func(k int) bool { return prefix(lo+k) >= target })
		if b <= lo {
			continue // target falls inside the previous item: elide the empty chunk
		}
		if b >= n {
			break
		}
		dst = append(dst, b)
		lo = b
	}
	return append(dst, n)
}

// MaxInt64 returns the maximum of body(i) over i in [0, n), or def when
// n == 0.
func MaxInt64(n int, def int64, body func(i int) int64) int64 {
	if n <= 0 {
		return def
	}
	var mu sync.Mutex
	best := def
	first := true
	ForChunked(n, func(lo, hi int) {
		local := body(lo)
		for i := lo + 1; i < hi; i++ {
			if v := body(i); v > local {
				local = v
			}
		}
		mu.Lock()
		if first || local > best {
			best = local
			first = false
		}
		mu.Unlock()
	})
	return best
}

// ExclusivePrefixSum replaces counts with its exclusive prefix sum in place
// and returns the total. counts[i] afterwards holds the sum of the original
// counts[0:i]. This is the standard CSR row-offset construction step.
//
// With more than one worker and at least 4·grainSize counts it is the
// classic two-pass chunked scan, two regions over about four chunks per
// worker: per-chunk totals, a serial scan of those, then per-chunk local
// scans offset by the chunk's base. Integer sums do not depend on how they
// are split, so the result is the serial scan's.
func ExclusivePrefixSum(counts []int64) int64 {
	n, workers := len(counts), maxProcs
	if workers <= 1 || n < 4*grainSize {
		var sum int64
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		return sum
	}
	chunkSize := (n + 4*workers - 1) / (4 * workers)
	sums := make([]int64, (n+chunkSize-1)/chunkSize)
	ForFixedChunks(n, chunkSize, func(c, lo, hi int) {
		var s int64
		for _, v := range counts[lo:hi] {
			s += v
		}
		sums[c] = s
	})
	total := ExclusivePrefixSum(sums)
	ForFixedChunks(n, chunkSize, func(c, lo, hi int) {
		run := sums[c]
		for i := lo; i < hi; i++ {
			v := counts[i]
			counts[i] = run
			run += v
		}
	})
	return total
}

// FillInt64 sets every element of s to v, in parallel for large slices.
func FillInt64(s []int64, v int64) {
	ForChunked(len(s), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = v
		}
	})
}

// Iota fills s with s[i] = i.
func Iota(s []int64) {
	ForChunked(len(s), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = int64(i)
		}
	})
}

const radixSortMin = 32

// RadixSortInt64 sorts a ascending with a stable LSD byte-radix pass,
// O(len(a) * ceil(bits(maxVal)/8)) time. Keys must lie in [0, maxVal].
// scratch must be at least len(a) long; it is clobbered. The sort is
// sequential — it exists to replace comparison sorts on small worklists
// (the BSP engine's sparse-activation candidate list), where O(k) beats
// O(k log k) and the deterministic ascending order must be preserved. Up to
// radixSortMin keys are insertion-sorted instead: a pass clears and sums
// 256 counters whatever len(a) is, which for the two-vertex worklist of a
// relay was most of the superstep.
func RadixSortInt64(a, scratch []int64, maxVal int64) {
	if len(a) <= radixSortMin {
		for i := 1; i < len(a); i++ {
			v, j := a[i], i
			for ; j > 0 && a[j-1] > v; j-- {
				a[j] = a[j-1]
			}
			a[j] = v
		}
		return
	}
	var counts [256]int64
	src, dst := a, scratch[:len(a)]
	for shift := uint(0); shift == 0 || maxVal>>shift > 0; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, v := range src {
			counts[(v>>shift)&0xff]++
		}
		var sum int64
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[counts[b]] = v
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
