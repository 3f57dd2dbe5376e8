package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForChunkedCoversAllIndicesParallel(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	n := 10 * grainSize
	visited := make([]int32, n)
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visited[i], 1)
		}
	})
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestEntryPointsCoverOnce: at three workers, every entry point visits each
// index exactly once with 0, 1, 2 and more tasks than workers, and forks one
// region exactly when it has at least two tasks.
func TestEntryPointsCoverOnce(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	wt := NewWorkerTimer(3)
	defer SetTimer(SetTimer(wt))
	span := func(hit func(i int)) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit(i)
			}
		}
	}
	for _, e := range []struct {
		name string
		size int // indices per task
		run  func(n int, hit func(i int))
	}{
		{"ForChunked", grainSize, func(n int, hit func(int)) { ForChunked(n, span(hit)) }},
		{"ForCoarse", 1, ForCoarse},
		{"ForFixedChunks", 100, func(n int, hit func(int)) {
			ForFixedChunks(n, 100, func(_, lo, hi int) { span(hit)(lo, hi) })
		}},
		{"ForBoundaryChunks", 10, func(n int, hit func(int)) {
			b := []int{0}
			for hi := 10; hi <= n; hi += 10 {
				b = append(b, hi)
			}
			ForBoundaryChunks(b, func(_, lo, hi int) { span(hit)(lo, hi) })
		}},
		{"MaxInt64", grainSize, func(n int, hit func(int)) {
			MaxInt64(n, 0, func(i int) int64 { hit(i); return 0 })
		}},
		{"FillInt64", grainSize, func(n int, hit func(int)) {
			s := make([]int64, n)
			FillInt64(s, 1)
			for i, v := range s {
				for ; v > 0; v-- {
					hit(i)
				}
			}
		}},
		{"Iota", grainSize, func(n int, hit func(int)) {
			s := make([]int64, n)
			Iota(s)
			for i, v := range s {
				if v == int64(i) {
					hit(i)
				}
			}
		}},
	} {
		for _, tasks := range []int{0, 1, 2, 5} {
			n := tasks * e.size
			hits := make([]int32, n)
			e.run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s, %d tasks: index %d hit %d times", e.name, tasks, i, h)
				}
			}
			want := int64(0)
			if tasks >= 2 {
				want = 1
			}
			if got := wt.Drain(nil).Regions; got != want {
				t.Errorf("%s, %d tasks: %d regions, want %d", e.name, tasks, got, want)
			}
		}
	}
}

// TestForCoversAllIndices: the index loops visit every index of [0, n)
// exactly once for lengths around the grainSize chunk edges, at one worker
// and at four.
func TestForCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			defer SetWorkers(SetWorkers(w))
			for _, n := range []int{0, 1, 7, grainSize, grainSize + 1, 3*grainSize + 5} {
				chunked, coarse := make([]int32, n), make([]int32, n)
				ForChunked(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&chunked[i], 1)
					}
				})
				ForCoarse(n, func(i int) { atomic.AddInt32(&coarse[i], 1) })
				for i := range chunked {
					if chunked[i] != 1 || coarse[i] != 1 {
						t.Fatalf("n=%d: index %d visited %d times by ForChunked, %d by ForCoarse",
							n, i, chunked[i], coarse[i])
					}
				}
			}
		})
	}
}

// TestForNegativeN: a negative length runs no body, forks nothing, and
// leaves MaxInt64 at its default.
func TestForNegativeN(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	wt := NewWorkerTimer(3)
	defer SetTimer(SetTimer(wt))
	called := false
	ForChunked(-5, func(lo, hi int) { called = true })
	ForCoarse(-5, func(i int) { called = true })
	ForFixedChunks(-5, 2, func(c, lo, hi int) { called = true })
	if got := MaxInt64(-5, -7, func(i int) int64 { called = true; return 0 }); got != -7 {
		t.Fatalf("MaxInt64(-5) = %d, want the default -7", got)
	}
	if called {
		t.Fatal("body called for negative n")
	}
	if r := wt.Drain(nil).Regions; r != 0 {
		t.Fatalf("negative n forked %d regions", r)
	}
}

// TestReduceInt64MatchesSequential: MaxInt64, the package's int64
// reduction, folds its per-chunk partials into the sequential answer at one
// worker and at three, for lengths on both sides of the chunk grain.
func TestReduceInt64MatchesSequential(t *testing.T) {
	for _, w := range []int{1, 3} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			defer SetWorkers(SetWorkers(w))
			f := func(seed int64, nRaw uint16) bool {
				n := int(nRaw)
				body := func(i int) int64 { return (int64(i) ^ seed) * -7046029254386353131 }
				seq := int64(-1)
				for i := 0; i < n; i++ {
					if v := body(i); i == 0 || v > seq {
						seq = v
					}
				}
				return MaxInt64(n, -1, body) == seq
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelExclusivePrefixSumMatchesSerial: the scan equals a plain
// serial scan at any worker count, on lengths either side of the 4·grainSize
// switch to the two-pass scan, which forks exactly two regions.
func TestParallelExclusivePrefixSumMatchesSerial(t *testing.T) {
	wt := NewWorkerTimer(8)
	defer SetTimer(SetTimer(wt))
	for _, w := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			defer SetWorkers(SetWorkers(w))
			for _, n := range []int{0, 1, 100, 4*grainSize - 1, 4 * grainSize, 4*grainSize + 17, 10*grainSize + 3} {
				got := make([]int64, n)
				want := make([]int64, n)
				var wantTotal int64
				for i := range got {
					got[i] = int64(i%13) - 3
					want[i] = wantTotal
					wantTotal += got[i]
				}
				if total := ExclusivePrefixSum(got); total != wantTotal {
					t.Fatalf("n=%d: total %d, want %d", n, total, wantTotal)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d: prefix differs from the serial scan", n)
				}
				wantRegions := int64(0)
				if w > 1 && n >= 4*grainSize {
					wantRegions = 2
				}
				if r := wt.Drain(nil).Regions; r != wantRegions {
					t.Fatalf("n=%d: %d regions, want %d", n, r, wantRegions)
				}
			}
		})
	}
}

// TestParallelExclusivePrefixSumProperty is the property test across the
// switch to the two-pass scan: at three workers, random counts whose
// length falls within 128 of 4·grainSize on either side scan to their
// running sums.
func TestParallelExclusivePrefixSumProperty(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	f := func(seed uint64, extra uint8) bool {
		counts := make([]int64, 4*grainSize-128+int(extra))
		orig := make([]int64, len(counts))
		for i := range counts {
			seed = seed*6364136223846793005 + 1442695040888963407
			counts[i] = int64(seed>>48) - 1<<15
			orig[i] = counts[i]
		}
		total := ExclusivePrefixSum(counts)
		var sum int64
		for i := range counts {
			if counts[i] != sum {
				return false
			}
			sum += orig[i]
		}
		return total == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRegion is the cost of one fork/join: an empty two-task region,
// and a 4·grainSize FillInt64, the smallest fill that forks. Run it with
// -cpu 1,2; at one worker neither forks.
func BenchmarkRegion(b *testing.B) {
	// -cpu sets GOMAXPROCS for each leaf benchmark, not for this parent.
	b.Run("empty2", func(b *testing.B) {
		defer SetWorkers(SetWorkers(runtime.GOMAXPROCS(0)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ForCoarse(2, func(int) {})
		}
	})
	b.Run("fill", func(b *testing.B) {
		defer SetWorkers(SetWorkers(runtime.GOMAXPROCS(0)))
		s := make([]int64, 4*grainSize)
		b.ReportAllocs()
		b.SetBytes(int64(len(s)) * 8)
		for i := 0; i < b.N; i++ {
			FillInt64(s, int64(i))
		}
	})
}

func BenchmarkExclusivePrefixSum(b *testing.B) {
	defer SetWorkers(SetWorkers(runtime.GOMAXPROCS(0)))
	data := make([]int64, 1<<22)
	for i := range data {
		data[i] = int64(i % 7)
	}
	scratch := make([]int64, len(data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, data)
		ExclusivePrefixSum(scratch)
	}
}

func TestMaxInt64(t *testing.T) {
	n := 3 * grainSize
	got := MaxInt64(n, -1, func(i int) int64 {
		if i == n/2 {
			return 1 << 40
		}
		return int64(i)
	})
	if got != 1<<40 {
		t.Fatalf("MaxInt64 = %d, want %d", got, int64(1)<<40)
	}
	if got := MaxInt64(0, -7, func(i int) int64 { return 0 }); got != -7 {
		t.Fatalf("MaxInt64 empty = %d, want -7", got)
	}
}

func TestExclusivePrefixSum(t *testing.T) {
	counts := []int64{3, 0, 2, 5, 1}
	total := ExclusivePrefixSum(counts)
	if total != 11 {
		t.Fatalf("total = %d, want 11", total)
	}
	want := []int64{0, 3, 3, 5, 10}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestExclusivePrefixSumEmpty(t *testing.T) {
	if total := ExclusivePrefixSum(nil); total != 0 {
		t.Fatalf("total = %d, want 0", total)
	}
}

func TestExclusivePrefixSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			counts[i] = int64(v)
			want += int64(v)
		}
		orig := append([]int64(nil), counts...)
		total := ExclusivePrefixSum(counts)
		if total != want {
			return false
		}
		// counts[i] + orig[i] == counts[i+1] (or total at the end).
		for i := range counts {
			next := total
			if i+1 < len(counts) {
				next = counts[i+1]
			}
			if counts[i]+orig[i] != next {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillAndIota(t *testing.T) {
	s := make([]int64, 3*grainSize)
	FillInt64(s, 42)
	for i, v := range s {
		if v != 42 {
			t.Fatalf("s[%d] = %d after fill", i, v)
		}
	}
	Iota(s)
	for i, v := range s {
		if v != int64(i) {
			t.Fatalf("s[%d] = %d after iota", i, v)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	orig := Workers()
	prev := SetWorkers(3)
	if prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0)
	if Workers() <= 0 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
	SetWorkers(orig)
}

func BenchmarkForChunkedSum(b *testing.B) {
	n := 1 << 20
	data := make([]int64, n)
	Iota(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		ForChunked(n, func(lo, hi int) {
			var local int64
			for j := lo; j < hi; j++ {
				local += data[j]
			}
			atomic.AddInt64(&total, local)
		})
	}
}

func TestForCoarseCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 1000} {
		for _, w := range []int{1, 4, 32} {
			func() {
				defer SetWorkers(SetWorkers(w))
				hits := make([]int32, n)
				ForCoarse(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
					}
				}
			}()
		}
	}
}

func TestForFixedChunksBoundaries(t *testing.T) {
	// Chunk boundaries must be a pure function of (n, chunkSize): every
	// index covered exactly once, every chunk exactly chunkSize long except
	// the last, regardless of worker count.
	for _, w := range []int{1, 5} {
		func() {
			defer SetWorkers(SetWorkers(w))
			const n, cs = 1003, 100
			hits := make([]int32, n)
			var chunks int64
			ForFixedChunks(n, cs, func(c, lo, hi int) {
				atomic.AddInt64(&chunks, 1)
				if lo != c*cs {
					t.Errorf("chunk %d starts at %d, want %d", c, lo, c*cs)
				}
				if hi != lo+cs && hi != n {
					t.Errorf("chunk %d ends at %d", c, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if chunks != 11 {
				t.Fatalf("w=%d: %d chunks, want 11", w, chunks)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d: index %d hit %d times", w, i, h)
				}
			}
		}()
	}
}

func TestRadixSortInt64(t *testing.T) {
	for _, tc := range [][]int64{
		{},
		{5},
		{3, 1, 2},
		{0, 0, 0},
		{1 << 40, 7, 1 << 20, 7, 0, 1<<40 - 1},
	} {
		a := append([]int64(nil), tc...)
		scratch := make([]int64, len(a))
		var max int64
		for _, v := range a {
			if v > max {
				max = v
			}
		}
		RadixSortInt64(a, scratch, max)
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				t.Fatalf("not sorted: %v", a)
			}
		}
		if len(a) != len(tc) {
			t.Fatalf("length changed: %d vs %d", len(a), len(tc))
		}
	}
}

// TestRadixSortInt64MatchesSort is the property test across the switch from
// insertion sort to radix passes: for every length 0-64 and key ranges
// from one value to 2^40, the result equals slices.Sort's (equal int64
// keys are indistinguishable, so that is the stable order too).
func TestRadixSortInt64MatchesSort(t *testing.T) {
	state := uint64(99)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 20
	}
	for _, maxVal := range []int64{0, 1, 255, 256, 70000, 1 << 32, 1 << 40} {
		for n := 0; n <= 64; n++ {
			for trial := 0; trial < 8; trial++ {
				a := make([]int64, n)
				for i := range a {
					a[i] = int64(next() % uint64(maxVal+1))
				}
				switch trial {
				case 1:
					slices.Sort(a)
				case 2:
					slices.Sort(a)
					slices.Reverse(a)
				}
				want := slices.Clone(a)
				slices.Sort(want)
				RadixSortInt64(a, make([]int64, n), maxVal)
				if !slices.Equal(a, want) {
					t.Fatalf("n=%d maxVal=%d: got %v, want %v", n, maxVal, a, want)
				}
			}
		}
	}
}

func TestRadixSortInt64Large(t *testing.T) {
	const n = 10000
	a := make([]int64, n)
	state := uint64(12345)
	for i := range a {
		state = state*6364136223846793005 + 1442695040888963407
		a[i] = int64(state % 100000)
	}
	scratch := make([]int64, n)
	RadixSortInt64(a, scratch, 99999)
	for i := 1; i < n; i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted at %d: %d > %d", i, a[i-1], a[i])
		}
	}
}
