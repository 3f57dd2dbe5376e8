// Package par provides the host-side parallel primitives used to execute
// graph kernels for real while the Cray XMT machine model accounts for
// simulated time. Everything here affects only host wall-clock speed and
// never the simulated results: simulated time is a pure function of the work
// profile a kernel records, so kernels must produce identical answers and
// identical profiles whether par runs them on 1 or N host cores.
//
// The primitives mirror the loop-level parallelism GraphCT relies on on the
// XMT: flat parallel-for over index ranges, reductions, and prefix sums.
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
// busy time — per phase. It exists for the observability layer (package
// obs) — installing a timer changes only what is measured, never what is
// computed, so the determinism invariant is untouched. Slots are
// cache-line padded so concurrent workers don't false-share.
type WorkerTimer struct {
	slots []timerSlot
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

// Drain moves the accumulated busy times into busy (one entry per worker,
// truncated to len(busy)) and resets the timer, returning busy. Callers
// drain at phase boundaries to get per-phase utilization. A slot nothing
// was added to since the last drain — every slot, in most phases of a
// near-empty superstep — costs two loads, not three locked writes.
func (t *WorkerTimer) Drain(busy []time.Duration) []time.Duration {
	for w := range t.slots {
		s := &t.slots[w]
		var ns int64
		if atomic.LoadInt64(&s.ns) != 0 || atomic.LoadInt64(&s.chunks) != 0 {
			ns = atomic.SwapInt64(&s.ns, 0)
			atomic.StoreInt64(&s.chunks, 0)
			atomic.StoreInt64(&s.maxNs, 0)
		}
		if w < len(busy) {
			busy[w] = time.Duration(ns)
		}
	}
	return busy
}

// DrainChunks reads and resets the chunk-granularity statistics: the total
// number of chunks timed since the last drain and the single longest chunk
// across all workers. Callers that want both per-worker busy time and
// chunk stats must call DrainChunks before Drain (Drain resets both).
func (t *WorkerTimer) DrainChunks() (chunks int64, maxChunk time.Duration) {
	for w := range t.slots {
		s := &t.slots[w]
		if atomic.LoadInt64(&s.chunks) == 0 {
			continue // Add counts a chunk whenever it sets a maximum
		}
		chunks += atomic.SwapInt64(&s.chunks, 0)
		if ns := atomic.SwapInt64(&s.maxNs, 0); time.Duration(ns) > maxChunk {
			maxChunk = time.Duration(ns)
		}
	}
	return chunks, maxChunk
}

// Workers returns the worker count the timer was sized for.
func (t *WorkerTimer) Workers() int { return len(t.slots) }

// curTimer is the installed timer; nil (the default) means "don't
// measure", and the only hot-path cost is one atomic pointer load per
// parallel region plus a nil check per chunk.
var curTimer atomic.Pointer[WorkerTimer]

// SetTimer installs t as the process's busy-time collector (nil uninstalls)
// and returns the previous timer so callers can nest and restore. One
// observed kernel at a time: concurrent observed runs would fold into
// whichever timer is installed last.
func SetTimer(t *WorkerTimer) *WorkerTimer {
	return curTimer.Swap(t)
}

// For runs body(i) for every i in [0, n), potentially in parallel.
// Iterations must be independent.
func For(n int, body func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked partitions [0, n) into contiguous chunks and runs body(lo, hi)
// for each chunk, potentially in parallel. It is the preferred form for hot
// loops: the per-iteration closure call of For is hoisted out.
func ForChunked(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := maxProcs
	if workers <= 1 || n <= grainSize {
		if t := curTimer.Load(); t != nil {
			start := time.Now()
			body(0, n)
			t.Add(0, time.Since(start))
			return
		}
		body(0, n)
		return
	}
	// Dynamic scheduling over fixed-size chunks handles the skewed work
	// distributions of scale-free graphs (one chunk may contain a vertex
	// with a million-edge adjacency list).
	chunk := n / (workers * 8)
	if chunk < grainSize {
		chunk = grainSize
	}
	t := curTimer.Load()
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if t != nil {
					start := time.Now()
					body(lo, hi)
					t.Add(w, time.Since(start))
				} else {
					body(lo, hi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForCoarse runs body(i) for every i in [0, n), potentially in parallel,
// with one task per iteration. Unlike For, which assumes per-iteration work
// is tiny and batches iterations by grainSize, ForCoarse is for
// coarse-grained bodies (whole chunks, per-chunk merges) where even a
// handful of iterations are worth distributing across workers.
func ForCoarse(n int, body func(i int)) {
	workers := maxProcs
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if t := curTimer.Load(); t != nil {
			start := time.Now()
			for i := 0; i < n; i++ {
				body(i)
			}
			t.Add(0, time.Since(start))
			return
		}
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	t := curTimer.Load()
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if t != nil {
					start := time.Now()
					body(i)
					t.Add(w, time.Since(start))
				} else {
					body(i)
				}
			}
		}(w)
	}
	wg.Wait()
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
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body(c, lo, hi)
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

// ReduceInt64 computes the sum of body(i) over i in [0, n) in parallel.
func ReduceInt64(n int, body func(i int) int64) int64 {
	var total int64
	ForChunked(n, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += body(i)
		}
		atomic.AddInt64(&total, local)
	})
	return total
}

// ReduceFloat64 computes the sum of body(i) over i in [0, n).
//
// Note: with more than one worker the association order of the floating
// point sum depends on chunk boundaries, which are deterministic for a given
// worker count, so results are reproducible per configuration.
func ReduceFloat64(n int, body func(i int) float64) float64 {
	if maxProcs <= 1 || n <= grainSize {
		var total float64
		for i := 0; i < n; i++ {
			total += body(i)
		}
		return total
	}
	var mu sync.Mutex
	var total float64
	ForChunked(n, func(lo, hi int) {
		var local float64
		for i := lo; i < hi; i++ {
			local += body(i)
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total
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

// CountIf returns the number of i in [0, n) for which pred(i) holds.
func CountIf(n int, pred func(i int) bool) int64 {
	return ReduceInt64(n, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// ExclusivePrefixSum replaces counts with its exclusive prefix sum in place
// and returns the total. counts[i] afterwards holds the sum of the original
// counts[0:i]. This is the standard CSR row-offset construction step.
func ExclusivePrefixSum(counts []int64) int64 {
	var sum int64
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	return sum
}

// ExclusivePrefixSum32 is ExclusivePrefixSum for int32 counts with an int64
// total (the total may exceed 2^31 even when individual offsets fit).
func ExclusivePrefixSum32(counts []int32) int64 {
	var sum int64
	for i, c := range counts {
		counts[i] = int32(sum)
		sum += int64(c)
	}
	return sum
}

// FillInt64 sets every element of s to v, in parallel for large slices.
func FillInt64(s []int64, v int64) {
	ForChunked(len(s), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = v
		}
	})
}

// FillInt32 sets every element of s to v, in parallel for large slices.
func FillInt32(s []int32, v int32) {
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

// ParallelExclusivePrefixSum computes the exclusive prefix sum of counts in
// place using the classic two-pass chunked scan (per-chunk sums, serial
// scan of chunk totals, parallel local scans). Semantically identical to
// ExclusivePrefixSum; preferable for very large arrays on multi-core
// hosts. Returns the total.
func ParallelExclusivePrefixSum(counts []int64) int64 {
	n := len(counts)
	workers := maxProcs
	if workers <= 1 || n < 4*grainSize {
		return ExclusivePrefixSum(counts)
	}
	chunks := workers * 4
	chunkSize := (n + chunks - 1) / chunks
	sums := make([]int64, chunks)

	// Pass 1: per-chunk totals.
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * chunkSize
		if lo >= n {
			break
		}
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			var s int64
			for i := lo; i < hi; i++ {
				s += counts[i]
			}
			sums[c] = s
		}(c, lo, hi)
	}
	wg.Wait()

	// Serial scan of chunk totals.
	total := ExclusivePrefixSum(sums)

	// Pass 2: local exclusive scans offset by the chunk base.
	for c := 0; c < chunks; c++ {
		lo := c * chunkSize
		if lo >= n {
			break
		}
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			run := sums[c]
			for i := lo; i < hi; i++ {
				v := counts[i]
				counts[i] = run
				run += v
			}
		}(c, lo, hi)
	}
	wg.Wait()
	return total
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

// ParallelExclusivePrefixSum32 is ParallelExclusivePrefixSum for int32
// counts with an int64 total. The caller must ensure every prefix fits in
// int32 (the BSP engine's message counts do: supersteps are capped well
// below 2^31 messages).
func ParallelExclusivePrefixSum32(counts []int32) int64 {
	n := len(counts)
	workers := maxProcs
	if workers <= 1 || n < 4*grainSize {
		return ExclusivePrefixSum32(counts)
	}
	chunks := workers * 4
	chunkSize := (n + chunks - 1) / chunks
	sums := make([]int64, chunks)

	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * chunkSize
		if lo >= n {
			break
		}
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(counts[i])
			}
			sums[c] = s
		}(c, lo, hi)
	}
	wg.Wait()

	total := ExclusivePrefixSum(sums)

	for c := 0; c < chunks; c++ {
		lo := c * chunkSize
		if lo >= n {
			break
		}
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			run := sums[c]
			for i := lo; i < hi; i++ {
				v := int64(counts[i])
				counts[i] = int32(run)
				run += v
			}
		}(c, lo, hi)
	}
	wg.Wait()
	return total
}
