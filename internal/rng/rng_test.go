package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for splitmix64 seeded with 1234567, from the
	// canonical C implementation.
	sm := &splitMix64{state: 1234567}
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := sm.Uint64(); got != w {
			t.Fatalf("splitmix64 output %d = %d, want %d", i, got, w)
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed generators matched %d/1000 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	x := New(7)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestUint64nUniform(t *testing.T) {
	x := New(99)
	const buckets = 10
	const n = 500000
	var count [buckets]int
	for i := 0; i < n; i++ {
		count[x.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", b, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	x := New(5)
	for i := 0; i < 10000; i++ {
		if v := x.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Property(t *testing.T) {
	// The low word must always equal wrapping multiplication.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children matched %d/1000 outputs", same)
	}
}

func TestSplitDeterministicGivenParentState(t *testing.T) {
	a := New(17)
	b := New(17)
	ca := a.Split(5)
	cb := b.Split(5)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("split is not a deterministic function of parent state")
		}
	}
}

func TestNormMoments(t *testing.T) {
	x := New(123)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := x.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	// A crude sanity check: shuffling [0,1,2] many times should hit all 6
	// arrangements.
	x := New(2024)
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		arr := [3]int{0, 1, 2}
		x.Shuffle(3, func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
		seen[arr] = true
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d/6 arrangements", len(seen))
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}
