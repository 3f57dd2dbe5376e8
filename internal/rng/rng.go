// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout graphxmt. Determinism matters here: every
// experiment in the paper reproduction must be replayable bit-for-bit from a
// seed, independent of host parallelism, so we avoid math/rand's global
// state and use explicit generator values, one per independently seeded
// stream.
//
// Xoshiro256** is the generator, seeded through splitmix64 as its authors
// recommend; Mix64 is one splitmix64 round, for cheap one-shot hashing of
// integers.
package rng

import "math/bits"

// splitMix64 is D. Lemire / S. Vigna's splitmix64 generator, seeded with
// its state.
type splitMix64 struct {
	state uint64
}

// Uint64 returns the next value in the sequence.
func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 finalization round. It is a
// stateless convenience used to derive per-index seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro is the xoshiro256** 1.0 generator of Blackman and Vigna.
type Xoshiro struct {
	// Four scalar words, not an array: the compiler keeps a four-field
	// struct in registers across an inlined Uint64, which it cannot do for
	// an indexed array.
	s0, s1, s2, s3 uint64
}

// New returns a Xoshiro generator seeded from seed via splitmix64.
func New(seed uint64) *Xoshiro {
	var x Xoshiro
	x.Reseed(seed)
	return &x
}

// Reseed reinitializes the generator in place, producing exactly the stream
// New(seed) would. It exists for hot loops that draw a fresh per-item
// stream (per-edge graph generation): a stack-allocated Xoshiro reseeded
// each iteration avoids one heap allocation per item.
func (x *Xoshiro) Reseed(seed uint64) {
	sm := splitMix64{state: seed}
	x.s0, x.s1, x.s2, x.s3 = sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()
	// All-zero state is the one invalid state; splitmix64 cannot emit four
	// consecutive zeros, but guard anyway.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next value in the sequence. It is written to fit the
// compiler's inlining budget: the RMAT generator draws five values per
// recursion level, and a call per draw was a third of its time.
func (x *Xoshiro) Uint64() uint64 {
	s0, s1, s2, s3 := x.s0, x.s1, x.s2^x.s0, x.s3^x.s1
	x.s0, x.s1, x.s2, x.s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform float64 in [0, 1).
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (x *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := x.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}
