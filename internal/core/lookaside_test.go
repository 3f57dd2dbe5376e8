package core

import (
	"math"
	"testing"
)

// TestPullLookasideFill watches the pull lookaside itself across two fills:
// exactly the broadcasters' bits are set and counted, every other slot —
// the ones the previous fill used included — reads the fold's identity
// again (MaxInt64 under Min: the gather folds it unasked), and scratchBytes
// reports the bytes the two arrays hold.
func TestPullLookasideFill(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		name     string
		combine  func(a, b int64) int64
		identity int64
	}{
		{"none", nil, 0}, {"or", Or, 0}, {"sum", Sum, 0}, {"min", Min, math.MaxInt64},
		{"closure", func(a, b int64) int64 { return max(a, b) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, tr := &runScratch{}, &traffic{}
			ib := &inbox{combine: tc.combine, fold: resolveFold(tc.combine)}
			empty := s.scratchBytes(0, tr, ib, nil, nil)
			fills := [][]bcastRec{
				{{src: 1, val: 5}, {src: 2, val: 6}, {src: 63, val: 0}, {src: 64, val: tc.identity}, {src: 199, val: 7000}},
				{{src: 2, val: 1000}},
				{},
			}
			for st, recs := range fills {
				if !ib.fillBcastLookaside(recs, n, int64(st)) {
					t.Fatalf("fill %d reports a duplicate source", st)
				}
				want := map[int64]int64{}
				for _, r := range recs {
					want[r.src] = r.val
				}
				if ib.stamped != int64(len(want)) {
					t.Errorf("fill %d: stamped = %d, want %d", st, ib.stamped, len(want))
				}
				for v := int64(0); v < n; v++ {
					val, sent := want[v]
					if !sent {
						val = tc.identity
					}
					if ib.look[v] != val || (bit(ib.sent, v) == 1) != sent {
						t.Errorf("fill %d: slot %d = %d (sent bit %d), want %d (sent %v)", st, v, ib.look[v], bit(ib.sent, v), val, sent)
					}
				}
			}
			held := int64(8*len(ib.look) + 8*len(ib.sent))
			if got := s.scratchBytes(0, tr, ib, nil, nil) - empty; got != held || held != 8*n+8*4 {
				t.Errorf("scratchBytes counts %d bytes of lookaside, the arrays hold %d (want %d)", got, held, 8*n+8*4)
			}
		})
	}
}
