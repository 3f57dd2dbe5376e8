package ckpt_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime/metrics"
	"testing"

	"graphxmt/internal/ckpt"
)

// FuzzDecode: every byte of a checkpoint payload is untrusted. Whatever the
// input, Decode must not panic, must not allocate more than a small
// multiple of the input (a stored length is only believed when the
// remaining bytes could back it), and must return either a snapshot or a
// typed *CorruptError. The encoding is canonical, so an accepted input
// re-encodes to exactly itself.
//
// The seed corpus is valid payloads (the golden test's seeds 1-8, which
// cover every optional section present and absent, at a handful of
// vertices so the engine's byte-at-a-time minimizer stays cheap),
// truncations of them, and single bit flips.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := ckpt.Encode(randSnapshotSized(rng, 6, 6))
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:rng.Intn(len(b))])
		flipped := bytes.Clone(b)
		flipped[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		before := heapAllocated()
		s, err := ckpt.Decode(b, "fuzz")
		allocated := heapAllocated() - before
		if err != nil {
			var ce *ckpt.CorruptError
			if s != nil || !errors.As(err, &ce) {
				t.Fatalf("Decode = %v, %v; want nil and a *CorruptError", s, err)
			}
		} else if again := ckpt.Encode(s); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d-byte input re-encodes to %d different bytes", len(b), len(again))
		}
		// The widest in-memory element per encoded byte is an Aggregate (32
		// bytes from 13), so 4x is generous. The slack is for the counter:
		// it is process-wide, and small objects are counted a whole span at
		// a time when an allocation cache refills, so it resolves nothing
		// under a few tens of KiB — while a believed bad length allocates
		// far more. Re-measure before trusting an overshoot.
		limit := 4*uint64(len(b)) + 64<<10
		for try := 0; allocated > limit && try < 2; try++ {
			before = heapAllocated()
			ckpt.Decode(b, "fuzz")
			allocated = heapAllocated() - before
		}
		if allocated > limit {
			t.Fatalf("Decode allocated %d bytes for a %d-byte input (limit %d)", allocated, len(b), limit)
		}
	})
}

// heapAllocated reads the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world — the fuzz engine's
// minimizer calls the target tens of thousands of times per finding.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
