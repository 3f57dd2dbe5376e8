package core

// White-box equivalence tests for the host-parallel building blocks: each
// parallel path must produce bit-identical output to its sequential twin
// on the same input, for any worker count. These call the paths directly,
// bypassing the size thresholds that route small inputs to the sequential
// code in production.

import (
	"fmt"
	"slices"
	"testing"

	"graphxmt/internal/par"
	"graphxmt/internal/rng"
)

func randomMessages(r *rng.Xoshiro, count int, n int64) []Message {
	buf := make([]Message, count)
	for i := range buf {
		buf[i] = Message{
			Dest:  int64(r.Uint64n(uint64(n))),
			Value: int64(r.Uint64n(1000)),
		}
	}
	return buf
}

// logOf writes buf into a unicast log, as a sweep's Sends would have.
func logOf(buf []Message) *msgLog {
	l := new(msgLog)
	for _, m := range buf {
		l.add(m.Dest, m.Value)
	}
	l.seal()
	return l
}

func TestStableGroupByDestMatchesSequential(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct {
		count int
		n     int64
	}{
		{0, 16}, {1, 16}, {100, 7}, {5000, 64}, {40000, 1000}, {40000, 3},
	} {
		buf := randomMessages(r, tc.count, tc.n)

		var seqOff, seqVal []int64
		seqOff = make([]int64, tc.n+1)
		seq := &runScratch{}
		seq.seqDeliver(logOf(buf), tc.n, &seqOff, &seqVal)

		for _, w := range []int{1, 4, 9} {
			func() {
				defer par.SetWorkers(par.SetWorkers(w))
				off := make([]int64, tc.n+1)
				val := make([]int64, tc.count)
				(&runScratch{}).stableGroupByDest(logOf(buf), tc.n, deliverChunks(tc.n), off, val)
				for i := range seqOff {
					if off[i] != seqOff[i] {
						t.Fatalf("count=%d n=%d w=%d: off[%d] = %d, want %d",
							tc.count, tc.n, w, i, off[i], seqOff[i])
					}
				}
				for i := range seqVal {
					if val[i] != seqVal[i] {
						t.Fatalf("count=%d n=%d w=%d: val[%d] = %d, want %d",
							tc.count, tc.n, w, i, val[i], seqVal[i])
					}
				}
			}()
		}
	}
}

// TestGroupByDestLayout: the chunk-major counting sort is the naive stable
// sort by destination for any fan-in, including more shares than messages,
// shares that cross block boundaries, and every message to one destination
// (every share's cursor for it in a different row).
func TestGroupByDestLayout(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	r := rng.New(3)
	for _, n := range []int64{1, 7, 8192} {
		for _, count := range []int{0, 5, 3*msgBlockLen + 7} {
			for _, oneDest := range []bool{false, true} {
				buf := randomMessages(r, count, n)
				if oneDest {
					for i := range buf {
						buf[i].Dest = n / 2
					}
				}
				want := slices.Clone(buf)
				slices.SortStableFunc(want, func(a, b Message) int { return int(a.Dest - b.Dest) })
				for _, C := range []int{2, 3, 8, 96} {
					off := make([]int64, n+1)
					val := make([]int64, count)
					(&runScratch{}).stableGroupByDest(logOf(buf), n, C, off, val)
					for i, m := range want {
						if val[i] != m.Value || off[m.Dest] > int64(i) || off[m.Dest+1] <= int64(i) {
							t.Fatalf("n=%d count=%d oneDest=%v C=%d: slot %d holds %d in group [%d,%d), want %d for destination %d",
								n, count, oneDest, C, i, val[i], off[m.Dest], off[m.Dest+1], m.Value, m.Dest)
						}
					}
					if off[0] != 0 || off[n] != int64(count) {
						t.Fatalf("n=%d count=%d oneDest=%v C=%d: groups span [%d,%d)", n, count, oneDest, C, off[0], off[n])
					}
				}
			}
		}
	}
}

func TestParCombineDeliverMatchesSequential(t *testing.T) {
	r := rng.New(2)
	// A non-commutative, non-associative combiner: the parallel combining
	// path must reproduce the sequential per-destination fold order
	// exactly, so even this pathological combiner stays deterministic.
	weird := func(a, b int64) int64 { return 3*a - b }
	for _, combine := range []func(a, b int64) int64{Min, Sum, weird} {
		for _, tc := range []struct {
			count int
			n     int64
		}{
			{0, 16}, {17, 5}, {5000, 64}, {40000, 1000},
		} {
			buf := randomMessages(r, tc.count, tc.n)

			seqOff := make([]int64, tc.n+1)
			var seqVal []int64
			wantDelivered := (&runScratch{}).seqCombineDeliver(logOf(buf), tc.n, combine, &seqOff, &seqVal)

			for _, w := range []int{1, 4, 9} {
				func() {
					defer par.SetWorkers(par.SetWorkers(w))
					off := make([]int64, tc.n+1)
					var val []int64
					delivered := (&runScratch{}).parCombineDeliver(logOf(buf), tc.n, combine, &off, &val)
					if delivered != wantDelivered {
						t.Fatalf("count=%d n=%d w=%d: delivered = %d, want %d",
							tc.count, tc.n, w, delivered, wantDelivered)
					}
					for i := range seqOff {
						if off[i] != seqOff[i] {
							t.Fatalf("count=%d n=%d w=%d: off[%d] = %d, want %d",
								tc.count, tc.n, w, i, off[i], seqOff[i])
						}
					}
					for i := int64(0); i < wantDelivered; i++ {
						if val[i] != seqVal[i] {
							t.Fatalf("count=%d n=%d w=%d: val[%d] = %d, want %d",
								tc.count, tc.n, w, i, val[i], seqVal[i])
						}
					}
				}()
			}
		}
	}
}

func TestNextWorklistPathsAgree(t *testing.T) {
	r := rng.New(3)
	const n = int64(2000)
	const step = 5
	// Build a delivered inbox and wake set, then check the dense-sweep and
	// stamp+radix paths produce the same ascending candidate list. The
	// paths are selected by size in production; here we invoke each via
	// crafted inputs on both sides of the threshold and cross-check with a
	// reference set.
	for trial := 0; trial < 10; trial++ {
		msgCount := int(r.Uint64n(3 * uint64(n)))
		buf := randomMessages(r, msgCount, n)
		wakeSet := map[int64]bool{}
		for i := uint64(0); i < r.Uint64n(uint64(n)); i++ {
			wakeSet[int64(r.Uint64n(uint64(n)))] = true
		}
		var wake []int64
		for v := int64(0); v < n; v++ {
			if wakeSet[v] {
				wake = append(wake, v)
			}
		}

		// Reference: the sorted union of receivers and wake vertices.
		recvSet := map[int64]bool{}
		for _, m := range buf {
			recvSet[m.Dest] = true
		}
		want := []int64{}
		for v := int64(0); v < n; v++ {
			if recvSet[v] || wakeSet[v] {
				want = append(want, v)
			}
		}

		for _, w := range []int{1, 6} {
			func() {
				defer par.SetWorkers(par.SetWorkers(w))
				s := &runScratch{}
				inboxOff := make([]int64, n+1)
				var inboxVal []int64
				delivered := s.deliver(logOf(buf), nil, int64(len(buf)), nil, n, nil, &inboxOff, &inboxVal, true, int64(step), DirAuto)
				if delivered != int64(len(buf)) {
					t.Fatalf("trial %d w=%d: delivered = %d, want %d", trial, w, delivered, len(buf))
				}
				stamp := make([]int64, n)
				par.FillInt64(stamp, -1)
				got := s.nextWorklist(make([]int64, n), step, wake, delivered, logOf(buf), nil, nil, int64(len(buf)), stamp, n, inboxOff)
				if len(got) != len(want) {
					t.Fatalf("trial %d w=%d: worklist len %d, want %d", trial, w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d w=%d: worklist[%d] = %d, want %d", trial, w, i, got[i], want[i])
					}
				}
			}()
		}
	}
}

// TestSparseDeliverMatchesDense checks that whatever deliver decides to
// build for a superstep — the O(sent) stamped lookaside (with and without
// combiner), the sequential CSR or the parallel one — and the lookaside
// paths forced onto traffic deliver would never give them, hands each
// vertex exactly the message sequence the sequential CSR path would. The
// scratch and inbox arrays are reused across the cases, as a run reuses
// them across supersteps: stamps and offsets left by one representation
// must never read as messages in the other.
func TestSparseDeliverMatchesDense(t *testing.T) {
	r := rng.New(9)
	const n = int64(5000)
	for _, combine := range []func(a, b int64) int64{nil, Sum} {
		for _, w := range []int{1, 6} {
			for _, sparse := range []bool{false, true} {
				defer par.SetWorkers(par.SetWorkers(w))
				s := &runScratch{}
				off := make([]int64, n+1)
				var val []int64
				for st, count := range []int{0, 7, 600, 40000, 3, int(n/lookasideCutoff) - 1, int(n / lookasideCutoff), 20000, 1} {
					for _, forced := range []bool{false, true} {
						buf := randomMessages(r, count, n)
						for i := range buf {
							buf[i].Dest %= 1 + n/int64(1+st%3) // some cases pile onto a third of the vertices
						}
						denseOff := make([]int64, n+1)
						var denseVal []int64
						var wantDelivered, delivered int64
						if combine == nil {
							wantDelivered = (&runScratch{}).seqDeliver(logOf(buf), n, &denseOff, &denseVal)
						} else {
							wantDelivered = (&runScratch{}).seqCombineDeliver(logOf(buf), n, combine, &denseOff, &denseVal)
						}
						// Each delivery gets its own stamp, as in a run.
						st := int64(2*st + 1)
						switch {
						case !forced:
							delivered = s.deliver(logOf(buf), nil, int64(len(buf)), nil, n, combine, &off, &val, sparse, st, DirAuto)
							if want := w == 1 && int64(count)*lookasideCutoff < n || w > 1 && count < deliverParallelMin && int64(count)*lookasideCutoff < n; s.lookaside != want {
								t.Fatalf("count=%d w=%d: lookaside = %v, want %v", count, w, s.lookaside, want)
							}
						case combine == nil:
							st++
							delivered = s.seqDeliverSparse(logOf(buf), n, off, &val, st)
						default:
							st++
							delivered = s.seqCombineDeliverSparse(logOf(buf), n, combine, off, &val, st)
						}
						if delivered != wantDelivered {
							t.Fatalf("count=%d w=%d forced=%v: delivered = %d, want %d", count, w, forced, delivered, wantDelivered)
						}
						ib := &inboxView{val: val, off: off, span: s.span, code: ^st, lookaside: s.lookaside}
						for v := int64(0); v < n; v++ {
							want := denseVal[denseOff[v]:denseOff[v+1]]
							got := ib.slice(v)
							if !slices.Equal(got, want) || ib.has(v) != (len(want) > 0) {
								t.Fatalf("count=%d w=%d forced=%v: inbox[%d] = %v (has %v), want %v",
									count, w, forced, v, got, ib.has(v), want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSeqCombineDeliverReusesScratch pins the allocation-churn fix: the
// has-flag invariant (all false between deliveries) must hold so repeated
// deliveries on one scratch need no per-superstep zeroing.
func TestSeqCombineDeliverReusesScratch(t *testing.T) {
	s := &runScratch{}
	const n = int64(32)
	off := make([]int64, n+1)
	var val []int64
	for round := 0; round < 3; round++ {
		buf := []Message{{Dest: 3, Value: 5}, {Dest: 3, Value: 2}, {Dest: 7, Value: 1}}
		delivered := s.seqCombineDeliver(logOf(buf), n, Min, &off, &val)
		if delivered != 2 {
			t.Fatalf("round %d: delivered = %d, want 2", round, delivered)
		}
		if got := val[off[3]:off[4]]; len(got) != 1 || got[0] != 2 {
			t.Fatalf("round %d: inbox[3] = %v", round, got)
		}
		for v, h := range s.has {
			if h {
				t.Fatalf("round %d: has[%d] left set", round, v)
			}
		}
	}
}

func TestSweepChunkSizeDeterministic(t *testing.T) {
	// Chunk boundaries must depend only on the sweep length, never the
	// worker count — the determinism of every chunk-order merge rests on
	// this.
	for _, count := range []int{0, 1, 63, 64, 4096, 1 << 20} {
		defer par.SetWorkers(par.SetWorkers(1))
		a := sweepChunkSize(count)
		par.SetWorkers(16)
		b := sweepChunkSize(count)
		if a != b {
			t.Fatalf("sweepChunkSize(%d) differs across worker counts: %d vs %d", count, a, b)
		}
	}
}

// TestResolveFold: the three built-in combiners are recognised by identity
// — through any path a func value takes to Config.Combiner — and nothing
// else is, however it behaves.
func TestResolveFold(t *testing.T) {
	viaOption := Config{}
	func(c *Config) { c.Combiner = Min }(&viaOption)
	for _, tc := range []struct {
		name string
		f    func(a, b int64) int64
		want foldKind
	}{
		{"nil", nil, foldNone},
		{"Or", Or, foldOr},
		{"Sum", Sum, foldSum},
		{"Min", viaOption.Combiner, foldMin},
		{"Max", Max, foldGeneric},
		{"closure over Sum", func(a, b int64) int64 { return Sum(a, b) }, foldGeneric},
	} {
		if got := resolveFold(tc.f); got != tc.want {
			t.Errorf("resolveFold(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// BenchmarkDeliverCutoff is the bench behind lookasideCutoff: one boundary
// plus the full-scan sweep's inbox probe that follows it, for n vertices
// (2^16: the arrays sit in L2; 2^20: they do not) and n/div uniformly
// random messages, through the CSR build and through the lookaside. The
// lookaside must win clearly at the cutoff; docs/PERFORMANCE.md §11 has
// the table.
func BenchmarkDeliverCutoff(b *testing.B) {
	r := rng.New(4)
	for _, n := range []int64{1 << 16, 1 << 20} {
		for _, div := range []int64{64, 16, 8, 4, 2, 1} {
			buf := randomMessages(r, int(n/div), n)
			for _, lookaside := range []bool{false, true} {
				b.Run(fmt.Sprintf("n=%d/sent=n/%d/lookaside=%v", n, div, lookaside), func(b *testing.B) {
					s := &runScratch{}
					off := make([]int64, n+1)
					var val []int64
					var sum int64
					for i := 0; i < b.N; i++ {
						if lookaside {
							s.seqDeliverSparse(logOf(buf), n, off, &val, int64(i))
						} else {
							s.lookaside = false
							s.seqDeliver(logOf(buf), n, &off, &val)
						}
						ib := &inboxView{val: val, off: off, span: s.span, code: ^int64(i), lookaside: s.lookaside}
						for v := int64(0); v < n; v++ {
							if ib.has(v) {
								sum += ib.slice(v)[0]
							}
						}
					}
					if sum == 0 {
						b.Fatal("no messages read")
					}
				})
			}
		}
	}
}
