package par

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, grainSize, grainSize + 1, 3*grainSize + 5} {
		visited := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&visited[i], 1) })
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

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

func TestForNegativeN(t *testing.T) {
	called := false
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("body called for negative n")
	}
}

func TestReduceInt64(t *testing.T) {
	n := 4*grainSize + 13
	got := ReduceInt64(n, func(i int) int64 { return int64(i) })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("ReduceInt64 = %d, want %d", got, want)
	}
}

func TestReduceInt64MatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)
		var seq int64
		for i := 0; i < n; i++ {
			seq += int64(i) ^ seed
		}
		parv := ReduceInt64(n, func(i int) int64 { return int64(i) ^ seed })
		return seq == parv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceFloat64(t *testing.T) {
	n := 2 * grainSize
	got := ReduceFloat64(n, func(i int) float64 { return 0.5 })
	if got != float64(n)/2 {
		t.Fatalf("ReduceFloat64 = %v, want %v", got, float64(n)/2)
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

func TestCountIf(t *testing.T) {
	n := 2*grainSize + 100
	got := CountIf(n, func(i int) bool { return i%3 == 0 })
	want := int64((n + 2) / 3)
	if got != want {
		t.Fatalf("CountIf = %d, want %d", got, want)
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

func TestExclusivePrefixSum32(t *testing.T) {
	counts := []int32{1, 2, 3}
	if total := ExclusivePrefixSum32(counts); total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 3 {
		t.Fatalf("prefix = %v", counts)
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
	s32 := make([]int32, grainSize*2)
	FillInt32(s32, -1)
	for i, v := range s32 {
		if v != -1 {
			t.Fatalf("s32[%d] = %d after fill", i, v)
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

func TestParallelExclusivePrefixSumMatchesSerial(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	for _, n := range []int{0, 1, 100, 4 * grainSize, 4*grainSize + 17, 10 * grainSize} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = int64(i%13) - 3
			b[i] = a[i]
		}
		ta := ExclusivePrefixSum(a)
		tb := ParallelExclusivePrefixSum(b)
		if ta != tb {
			t.Fatalf("n=%d: totals %d vs %d", n, ta, tb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: prefix[%d] %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestParallelExclusivePrefixSumProperty(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	f := func(raw []uint16) bool {
		counts := make([]int64, len(raw))
		orig := make([]int64, len(raw))
		for i, v := range raw {
			counts[i] = int64(v)
			orig[i] = int64(v)
		}
		total := ParallelExclusivePrefixSum(counts)
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

func BenchmarkParallelPrefixSum(b *testing.B) {
	data := make([]int64, 1<<22)
	for i := range data {
		data[i] = int64(i % 7)
	}
	scratch := make([]int64, len(data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, data)
		ParallelExclusivePrefixSum(scratch)
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

func TestParallelExclusivePrefixSum32MatchesSerial(t *testing.T) {
	defer SetWorkers(SetWorkers(7))
	n := 5*grainSize + 123
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(i % 11)
		b[i] = a[i]
	}
	totA := ExclusivePrefixSum32(a)
	totB := ParallelExclusivePrefixSum32(b)
	if totA != totB {
		t.Fatalf("totals differ: %d vs %d", totA, totB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, b[i], a[i])
		}
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
