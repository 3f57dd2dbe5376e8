package core

// White-box tests of the delivery primitives and the decision in front of
// them (delivery.go): every primitive against a naive oracle — a stable
// sort by destination, then a flat left fold — and choosePath against a
// literal table of today's routing. These call the primitives directly,
// bypassing the thresholds that route small inputs in production.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/par"
	"graphxmt/internal/rng"
)

// Message is one per-edge message as the oracles see it: the log stores
// values and destination runs, never these.
type Message struct {
	Dest  int64
	Value int64
}

// randomMessages is count messages in runs of consecutive sends to one
// random destination, the shape the log stores: half the runs one message
// long, most of the rest geometric (mean 8), and one in 64 longer than a
// block holds, so that it splits across blocks — and across the shares of
// a counting sort that cuts between them. Consecutive runs may share a
// destination too.
func randomMessages(r *rng.Xoshiro, count int, n int64) []Message {
	buf := make([]Message, 0, count)
	for len(buf) < count {
		dest, k := int64(r.Uint64n(uint64(n))), 1
		switch x := r.Uint64n(64); {
		case x == 0:
			k = msgBlockLen + int(r.Uint64n(msgBlockLen))
		case x < 32:
			for r.Uint64n(8) != 0 {
				k++
			}
		}
		for range min(k, count-len(buf)) {
			buf = append(buf, Message{Dest: dest, Value: int64(r.Uint64n(1000))})
		}
	}
	return buf
}

// logTraffic is buf as the unicast log a sweep's Sends would have left, over
// an edgeless graph of n vertices.
func logTraffic(buf []Message, n int64) *traffic {
	t := &traffic{g: graph.MustBuild(n, nil, graph.BuildOptions{}), logical: int64(len(buf))}
	for _, m := range buf {
		t.sends.add(m.Dest, m.Value)
	}
	t.sends.seal()
	return t
}

// recordTraffic is a pure-broadcast superstep whose per-edge expansion is
// exactly count messages: a directed multigraph (flat or compressed) with
// one arc per message — all into the last vertex when oneDest — and one
// record per source in ascending source order, as a sweep leaves them;
// source 0 broadcasts twice. It returns the naive expansion beside it.
func recordTraffic(r *rng.Xoshiro, count int, n int64, oneDest, compressed bool) (*traffic, []Message) {
	edges := make([]graph.Edge, count)
	for i := range edges {
		if oneDest {
			edges[i] = graph.Edge{U: int64(i), V: n - 1}
		} else {
			edges[i] = graph.Edge{U: int64(i % 37), V: int64(r.Uint64n(uint64(n)))}
		}
	}
	flat := graph.MustBuild(n, edges, graph.BuildOptions{Directed: true, KeepSelfLoops: true, KeepDuplicates: true})
	t := &traffic{g: flat, bufs: &gatherPool{size: 2 * flat.MaxDegree()}, logical: int64(count)}
	if compressed {
		t.g = MustCompress(flat)
	}
	var msgs []Message
	for src := int64(0); src < n; src++ {
		for rep := 0; rep < 2 && flat.Degree(src) > 0; rep++ {
			if rep == 1 && src > 0 {
				break
			}
			rec := bcastRec{src: src, val: int64(r.Uint64n(1000))}
			t.bcasts = append(t.bcasts, rec)
			for _, w := range flat.Neighbors(src) {
				msgs = append(msgs, Message{Dest: w, Value: rec.val})
			}
		}
	}
	t.logical = int64(len(msgs))
	return t, msgs
}

// mixedTraffic is a superstep that Sends count messages — all to the last
// vertex when oneDest — and broadcasts in between: recordTraffic's records
// over at most 97 arcs, placed before the first message, at the log block's
// edges, between segments and after the last message. It returns the
// per-edge send order beside it.
func mixedTraffic(r *rng.Xoshiro, count int, n int64, oneDest, compressed bool) (*traffic, []Message) {
	t, _ := recordTraffic(r, min(97, int(n)), n, oneDest, compressed)
	log := randomMessages(r, count, n)
	for i := range log {
		if oneDest {
			log[i].Dest = n - 1
		}
		t.sends.add(log[i].Dest, log[i].Value)
	}
	t.sends.seal()
	const B = msgBlockLen
	// inRun is a stream position inside a run: between two sends to one
	// destination.
	inRun := int64(count)
	for i := 1; i < count; i++ {
		if log[i].Dest == log[i-1].Dest {
			inRun = int64(i)
			break
		}
	}
	at := []int64{0, 0, inRun, B - 1, B, B + 1, 2 * B, int64(count)}
	for i := range t.bcasts {
		t.bcasts[i].seq = min(at[i*len(at)/len(t.bcasts)], int64(count))
	}
	msgs := sendOrder(log, t.bcasts, t.g.Neighbors)
	t.logical = int64(len(msgs))
	return t, msgs
}

// sendOrder is the per-edge stream of a superstep that logged these Sends
// and these records: before each record, the Sends up to its seq.
func sendOrder(log []Message, bcasts []bcastRec, nbrs func(int64) []int64) []Message {
	var out []Message
	var at int64
	for _, r := range bcasts {
		out, at = append(out, log[at:r.seq]...), r.seq
		for _, w := range nbrs(r.src) {
			out = append(out, Message{Dest: w, Value: r.val})
		}
	}
	return append(out, log[at:]...)
}

// oracle is what every vertex must find in its inbox: its messages in send
// order (a stable sort by destination), left-folded flat when combining.
func oracle(msgs []Message, n int64, combine func(a, b int64) int64) [][]int64 {
	sorted := slices.Clone(msgs)
	slices.SortStableFunc(sorted, func(a, b Message) int { return int(a.Dest - b.Dest) })
	want := make([][]int64, n)
	for _, m := range sorted {
		if combine == nil || len(want[m.Dest]) == 0 {
			want[m.Dest] = append(want[m.Dest], m.Value)
		} else {
			want[m.Dest][0] = combine(want[m.Dest][0], m.Value)
		}
	}
	return want
}

// hubs is the destinations that receive hubFoldMin messages or more: the
// groups combineGroups folds as a tree.
func hubs(msgs []Message) []int64 {
	per := map[int64]int{}
	var out []int64
	for _, m := range msgs {
		if per[m.Dest]++; per[m.Dest] == hubFoldMin {
			out = append(out, m.Dest)
		}
	}
	return out
}

// hasMessages is the full scan's test for stored messages (runRange): v's
// bit in recv.
func hasMessages(ib *inbox, v int64) bool { return bit(ib.recv, v) == 1 }

// checkInbox compares what the sweep would read from ib with want, and recv
// with the vertices want has messages for.
func checkInbox(t *testing.T, ib *inbox, delivered int64, want [][]int64) {
	t.Helper()
	var total int64
	for v, w := range want {
		total += int64(len(w))
		if got := ib.slice(int64(v)); !slices.Equal(got, w) || hasMessages(ib, int64(v)) != (len(w) > 0) {
			t.Fatalf("inbox[%d] = %v (recv %v), want %v", v, got, hasMessages(ib, int64(v)), w)
		}
	}
	for i, w := range ib.recv {
		if hi := 64 * (i + 1); hi > len(want) && w>>(64-(hi-len(want))) != 0 {
			t.Fatalf("recv has bits past vertex %d: %#x", len(want), w)
		}
	}
	if delivered != total {
		t.Fatalf("delivered = %d, want %d", delivered, total)
	}
}

// TestDeliveryPrimitives runs the four primitives (and combineGroups on top
// of groupByDest) over source {log, records, both interleaved} × graph
// representation ×
// combiner {none, Min, Sum, a non-associative one} × inbox {CSR at fan-in 1,
// 2, 3, 8 and 96 — more shares than segments, shares crossing block
// boundaries — and lookaside} × message counts straddling a log block ×
// {random destinations, every message to one destination: every share's
// cursor for it in a different row}. One scratch and one inbox serve every
// row, as a run reuses them across supersteps: receiver bits and offsets
// left by one row must never read as messages in the next.
func TestDeliveryPrimitives(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	r := rng.New(1)
	const B = msgBlockLen
	// 3a-b is neither commutative nor associative: every primitive must
	// reproduce the exact per-destination send order, bar the hub prefold.
	weird := func(a, b int64) int64 { return 3*a - b }
	combiners := []struct {
		name string
		f    func(a, b int64) int64
	}{{"none", nil}, {"min", Min}, {"sum", Sum}, {"3a-b", weird}}
	s := &runScratch{}
	ib := &inbox{}
	var backing []int64
	var words []uint64
	for _, source := range []string{"log", "records", "mixed"} {
		for _, oneDest := range []bool{false, true} {
			for _, count := range []int{0, 1, B - 1, B, B + 1, 3*B + 7} {
				for _, compressed := range []bool{false, true} {
					if compressed && source == "log" {
						continue // the log never touches the graph
					}
					n := int64(1000)
					if oneDest {
						n = int64(count) + 1
					}
					var tr *traffic
					var msgs []Message
					switch source {
					case "records":
						tr, msgs = recordTraffic(r, count, n, oneDest, compressed)
					case "mixed":
						tr, msgs = mixedTraffic(r, count, n, oneDest, compressed)
					default:
						msgs = randomMessages(r, count, n)
						for i := range msgs {
							if oneDest {
								msgs[i].Dest = n - 1
							}
						}
						tr = logTraffic(msgs, n)
					}
					backing = ensureInt64(backing, int(n)+1)
					ib.off = backing[:n+1]
					if len(words) < int(n+63)/64 {
						words = make([]uint64, (n+63)/64)
					}
					ib.own = words[:(n+63)/64]
					for _, cb := range combiners {
						want := oracle(msgs, n, cb.f)
						ib.combine = cb.f
						for _, C := range []int{0, 1, 2, 3, 8, 96} {
							name := fmt.Sprintf("%s/oneDest=%v/count=%d/compressed=%v/%s/C=%d", source, oneDest, count, compressed, cb.name, C)
							clear(ib.own)
							ib.recv, ib.lookaside = ib.own, C == 0
							var delivered int64
							switch {
							case C == 0:
								if int64(len(ib.span)) < n {
									ib.span = make([]int64, n)
								}
								if cb.f == nil {
									delivered = lookasideScatter(tr, ib)
								} else {
									delivered = lookasideFold(tr, ib)
								}
							case cb.f == nil:
								ib.val = ensureInt64(ib.val, len(msgs))
								s.groupByDest(tr, n, C, ib.off, ib.val, ib.recv)
								delivered = int64(len(msgs))
								if ib.off[0] != 0 || ib.off[n] != delivered {
									t.Fatalf("%s: groups span [%d,%d), want [0,%d)", name, ib.off[0], ib.off[n], delivered)
								}
							case C == 1:
								delivered = s.denseFold(tr, ib, n)
							default:
								delivered = s.combineGroups(tr, ib, n, C)
							}
							rowWant := want
							if C > 1 && cb.name == "3a-b" {
								// A hub group folds as a tree, which takes an
								// associative combiner: the hub's one value is the
								// tree's, not the flat fold's, so only its arrival
								// is checked there.
								rowWant = slices.Clone(want)
								for _, d := range hubs(msgs) {
									if got := ib.slice(d); len(got) == 1 {
										rowWant[d] = got
									}
								}
							}
							t.Run(name, func(t *testing.T) { checkInbox(t, ib, delivered, rowWant) })
						}
					}
				}
			}
		}
	}
}

// TestGroupByDestLayout: a superstep of 2^31 or more messages sorts through
// int64 cursors — too many messages to test with, so the same sort is run at
// that width over small traffic, at every fan-in.
func TestGroupByDestLayout(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	r := rng.New(3)
	for _, n := range []int64{1, 7, 8192} {
		for _, count := range []int{0, 5, 3*msgBlockLen + 7} {
			for _, oneDest := range []bool{false, true} {
				msgs := randomMessages(r, count, n)
				for i := range msgs {
					if oneDest {
						msgs[i].Dest = n / 2
					}
				}
				tr, want := logTraffic(msgs, n), oracle(msgs, n, nil)
				for _, C := range []int{1, 2, 3, 8, 96} {
					s := &runScratch{}
					bnds := s.shares(tr, C)
					ib := newInbox(n, nil)
					ib.val = make([]int64, count)
					countingSort(s, tr, bnds, make([]int64, n*int64(len(bnds)-1)), n, ib.off, ib.val, ib.recv)
					t.Run(fmt.Sprintf("n=%d/count=%d/oneDest=%v/C=%d", n, count, oneDest, C), func(t *testing.T) {
						checkInbox(t, ib, int64(count), want)
					})
				}
			}
		}
	}
}

// TestChoosePath pins the routing: every cell of the table, both sides of
// each of the three constants, the int32-cursor limit, one worker, and the
// PR 5 combiner-pull rule.
func TestChoosePath(t *testing.T) {
	const (
		big   = 1 << 20 // vertices: nothing below 2^18 messages is near it
		small = 1 << 10 // vertices: 2^14 messages are far above it
	)
	for _, tc := range []struct {
		name string
		in   pathInputs
		want string
		why  string
	}{
		// The log, no combiner or with one: same routing.
		{"log far below n", pathInputs{logical: 100, unicast: 100, n: big, workers: 4}, "lookaside", "logical*lookasideCutoff < n"},
		{"log just below n/cutoff", pathInputs{logical: big/lookasideCutoff - 1, unicast: big/lookasideCutoff - 1, n: big, workers: 1}, "lookaside", "logical*lookasideCutoff < n"},
		{"log at n/cutoff", pathInputs{logical: big / lookasideCutoff, unicast: big / lookasideCutoff, n: big, workers: 1}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"log at n/cutoff, combiner", pathInputs{logical: big / lookasideCutoff, unicast: big / lookasideCutoff, n: big, workers: 1, combiner: true}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"log below deliverParallelMin", pathInputs{logical: deliverParallelMin - 1, unicast: deliverParallelMin - 1, n: small, workers: 4}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"log at deliverParallelMin", pathInputs{logical: deliverParallelMin, unicast: deliverParallelMin, n: small, workers: 4}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"log at deliverParallelMin, combiner", pathInputs{logical: deliverParallelMin, unicast: deliverParallelMin, n: small, workers: 4, combiner: true}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"log at deliverParallelMin, one worker", pathInputs{logical: deliverParallelMin, unicast: deliverParallelMin, n: small, workers: 1}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"parallel beats lookaside", pathInputs{logical: deliverParallelMin, unicast: deliverParallelMin, n: big, workers: 2}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"same traffic, one worker", pathInputs{logical: deliverParallelMin, unicast: deliverParallelMin, n: big, workers: 1}, "lookaside", "logical*lookasideCutoff < n"},
		{"last int32 cursor", pathInputs{logical: math.MaxInt32 - 1, unicast: math.MaxInt32 - 1, n: small, workers: 4}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"logical == MaxInt32", pathInputs{logical: math.MaxInt32, unicast: math.MaxInt32, n: small, workers: 4}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"MaxInt32 messages, huge n", pathInputs{logical: math.MaxInt32, unicast: math.MaxInt32, n: 1 << 40, workers: 4}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"no messages, vertices awake", pathInputs{n: small, workers: 4}, "lookaside", "logical*lookasideCutoff < n"},

		// Records: pulled only at pullMinEdges and beside no unicast; a mixed
		// stream is never forked.
		{"records below pullMinEdges", pathInputs{logical: pullMinEdges - 1, records: 9, n: small, workers: 1, dir: DirPull}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"records below pullMinEdges, combiner", pathInputs{logical: pullMinEdges - 1, records: 9, n: small, workers: 4, dir: DirPull, combiner: true}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"small records, big graph", pathInputs{logical: 50, records: 9, n: big, workers: 4, dir: DirPull}, "lookaside", "logical*lookasideCutoff < n"},
		{"records beside a unicast", pathInputs{logical: 1 << 16, unicast: 1, records: 9, n: small, workers: 4, dir: DirPull, combiner: true}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"records beside a unicast, big graph", pathInputs{logical: 1 << 16, unicast: 1, records: 9, n: big, workers: 4, dir: DirPull}, "lookaside", "logical*lookasideCutoff < n"},
		{"records at pullMinEdges", pathInputs{logical: pullMinEdges, records: 9, n: small, workers: 1}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
		{"pullable records, parallel", pathInputs{logical: pullMinEdges, records: 9, n: small, workers: 4, dir: DirPush}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"pullable records far below n", pathInputs{logical: pullMinEdges, records: 9, n: big, workers: 1, dir: DirPull, combiner: true}, "lookaside", "logical*lookasideCutoff < n"},
		{"pullable records far below n, parallel", pathInputs{logical: pullMinEdges, records: 9, n: big, workers: 4, dir: DirPull}, "pull", "recorded direction"},

		// Pullable records: direction, then combiner.
		{"recorded pull", pathInputs{logical: 1 << 16, records: 9, n: small, workers: 4, dir: DirPull}, "pull", "recorded direction"},
		{"recorded pull, combiner", pathInputs{logical: 1 << 16, records: 9, n: small, workers: 1, dir: DirPull, combiner: true}, "pull", "recorded direction"},
		{"recorded push", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 16, workers: 4, dir: DirPush}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"recorded push, combiner: no parallel cell", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 16, workers: 4, dir: DirPush, combiner: true}, "csr", "records fold sequentially"},
		{"PR 5 combiner-pull", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 17, workers: 4, combiner: true}, "pull", "combiner, undirected, 2*logical >= edges"},
		{"PR 5: frontier under half the edges", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1<<17 + 1, workers: 4, combiner: true}, "csr", "records fold sequentially"},
		{"PR 5: directed", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 16, workers: 4, combiner: true, directed: true}, "csr", "records fold sequentially"},
		{"PR 5: no combiner", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 16, workers: 4}, "csr-par", "workers > 1, deliverParallelMin <= logical < 2^31"},
		{"PR 5: no combiner, one worker", pathInputs{logical: 1 << 16, records: 9, n: small, edges: 1 << 16, workers: 1}, "csr", "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"},
	} {
		p, why := choosePath(tc.in)
		if p.String() != tc.want || why != tc.why {
			t.Errorf("%s: choosePath(%+v) = %s (%s), want %s (%s)", tc.name, tc.in, p, why, tc.want, tc.why)
		}
	}
}

// FuzzDeliverEquivalence: random traffic — a unicast log, one broadcast
// record per sender, or both interleaved at random stream positions — over a
// random small undirected graph, flat or compressed, delivered by every path
// choosePath can return, forced in turn on one scratch and one inbox, for
// two supersteps' traffic in turn: each vertex reads the oracle's sequence
// whichever path built its inbox, pull (read through the gather, pure
// broadcast only) included, and recv is exactly the vertices with a message
// — after a pull that stamped its receivers or found them saturated (every
// vertex with a neighbor broadcasts when count is even), with no bit left by
// the delivery before.
// Only a no-combiner pull under the full scan marks every vertex with a
// neighbor instead: its gather finds out. The combiners are commutative and
// associative, as a pull's neighbor-order fold requires.
func FuzzDeliverEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint16(5000), uint8(0), uint8(0), uint8(1), false)
	f.Add(uint64(2), uint16(64), uint16(0), uint8(1), uint8(1), uint8(4), true)
	f.Add(uint64(3), uint16(511), uint16(9000), uint8(1), uint8(2), uint8(3), false)
	f.Add(uint64(4), uint16(0), uint16(7), uint8(0), uint8(3), uint8(7), true)
	f.Add(uint64(5), uint16(200), uint16(4100), uint8(2), uint8(2), uint8(2), false)
	f.Add(uint64(6), uint16(511), uint16(9000), uint8(2), uint8(0), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, nv, count uint16, source, combiner, workers uint8, sparse bool) {
		defer par.SetWorkers(par.SetWorkers(1 + int(workers%8)))
		r := rng.New(seed)
		n := 1 + int64(nv%512)
		edges := make([]graph.Edge, r.Uint64n(uint64(4*n)))
		for i := range edges {
			edges[i] = graph.Edge{U: int64(r.Uint64n(uint64(n))), V: int64(r.Uint64n(uint64(n)))}
		}
		g := graph.MustBuild(n, edges, graph.BuildOptions{})
		if seed&1 == 1 {
			g = MustCompress(g)
		}
		combine := []func(a, b int64) int64{nil, Min, Sum, Or}[combiner%4]
		// superstep draws one superstep's traffic and its oracle: source%3 is
		// 0 for the log alone, 1 for the records alone, 2 for both.
		superstep := func() (*traffic, [][]int64) {
			tr := &traffic{g: g, bufs: &gatherPool{size: 2 * g.MaxDegree()}}
			var log []Message
			if source%3 != 1 {
				log = randomMessages(r, int(count), n)
				for _, m := range log {
					tr.sends.add(m.Dest, m.Value)
				}
				tr.sends.seal()
			}
			if source%3 != 0 {
				var seqs []int64
				for src := int64(0); src < n; src++ {
					if g.Degree(src) == 0 || count%2 == 1 && r.Uint64n(2) == 0 {
						continue
					}
					tr.bcasts = append(tr.bcasts, bcastRec{src: src, val: int64(r.Uint64n(1000))})
					seqs = append(seqs, int64(r.Uint64n(uint64(len(log)+1))))
				}
				slices.Sort(seqs)
				for i := range tr.bcasts {
					tr.bcasts[i].seq = seqs[i]
				}
			}
			msgs := sendOrder(log, tr.bcasts, g.Neighbors)
			tr.logical = int64(len(msgs))
			return tr, oracle(msgs, n, combine)
		}
		// Two supersteps, delivered in turn, so each delivery follows one
		// that had other receivers.
		var trs [2]*traffic
		var wants [2][][]int64
		for i := range trs {
			trs[i], wants[i] = superstep()
		}
		s := &runScratch{}
		ib := newInbox(n, combine)
		paths := []path{{kind: pathLookaside}, {kind: pathCSR}, {kind: pathCSRPar}}
		if source%3 == 1 {
			paths = append(paths, path{kind: pathPull})
		}
		// Under sparse activation a delivery retires the bits of the sweep's
		// candidates, which hold every receiver of the delivery before: here,
		// those receivers alone.
		var prev []int64
		if sparse {
			prev = []int64{}
		}
		for _, p := range paths {
			for i, tr := range trs {
				want := wants[i]
				if p.kind == pathPull && !ib.fillBcastLookaside(tr.bcasts, n) {
					t.Fatal("one record per source, yet the broadcaster stamp reports a duplicate")
				}
				delivered := s.build(p, tr, ib, prev)
				if sparse {
					prev = prev[:0]
					for v, w := range want {
						if len(w) > 0 {
							prev = append(prev, int64(v))
						}
					}
				}
				if p.kind != pathPull {
					checkInbox(t, ib, delivered, want)
					continue
				}
				cs := &chunkState{}
				cs.eng.graph, cs.eng.bufs, cs.ctx.engine = g, tr.bufs, &cs.eng
				var total int64
				for v, w := range want {
					total += int64(len(w))
					if got := cs.gather(ib, int64(v)); !slices.Equal(got, w) {
						t.Fatalf("pull: vertex %d gathers %v, want %v", v, got, w)
					}
					if recv := hasMessages(ib, int64(v)); recv != (len(w) > 0) && !(recv && combine == nil && !sparse) {
						t.Fatalf("pull (saturated %v): recv bit of vertex %d is %v, want %v", ib.saturated, v, recv, len(w) > 0)
					}
				}
				cs.ctx.returnBuf()
				if delivered != total {
					t.Fatalf("pull: delivered = %d, want %d", delivered, total)
				}
			}
		}
	})
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
				ib := newInbox(n, nil)
				tr := logTraffic(buf, n)
				delivered, _ := s.deliver(tr, ib, []int64{}, DirAuto)
				if delivered != int64(len(buf)) {
					t.Fatalf("trial %d w=%d: delivered = %d, want %d", trial, w, delivered, len(buf))
				}
				stamp := make([]int64, n)
				par.FillInt64(stamp, -1)
				// At a boundary the halted set is the complement of the wake
				// set; here every vertex ran in the sweep before it.
				halted := make([]uint64, (n+63)/64)
				for v := int64(0); v < n; v++ {
					if !wakeSet[v] {
						setBit(halted, v)
					}
				}
				ran := make([]int64, n)
				par.Iota(ran)
				got := s.nextWorklist(ran, step, int64(len(wake)), delivered, tr, stamp, ib, halted)
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

// TestSweepChunkSizeDeterministic: chunk boundaries depend only on the sweep
// — never on the worker count — and the determinism of every chunk-order
// merge rests on that. The compute sweep's partition (sweepBoundaries) must
// also keep its shape on every graph and candidate set: boundaries from 0 to
// count, strictly increasing, at most sweepMaxChunks chunks, every chunk but
// the last holding sweepMinChunk candidates, an all-candidates sparse sweep
// cut only where the full scan is, and no chunk heavier than the heaviest
// full-scan range plus its first sweepMinChunk-1 candidates.
func TestSweepChunkSizeDeterministic(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	for _, count := range []int{0, 1, 63, 64, 4096, 1 << 20} {
		par.SetWorkers(1)
		a := sweepChunkSize(count)
		par.SetWorkers(16)
		if b := sweepChunkSize(count); a != b {
			t.Fatalf("sweepChunkSize(%d) differs across worker counts: %d vs %d", count, a, b)
		}
	}

	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star", gen.Star(1 << 12)},
		{"ba", ba},
		{"grid128", gen.Grid(128, 128)},
		{"rmat10", rmat},
		{"path", gen.Path(5000)},
		{"n=1", gen.Path(1)},
		{"empty", graph.MustBuild(0, nil, graph.BuildOptions{})},
	} {
		n, off := gc.g.NumVertices(), gc.g.Offsets()
		work := func(vs []int64) (w int64) {
			for _, v := range vs {
				w += off[v+1] - off[v] + sweepVertexWork
			}
			return w
		}
		all := make([]int64, n)
		par.Iota(all)
		// spread is k candidates spaced evenly over the vertices (all of them
		// when there are fewer than k).
		spread := func(k int64) []int64 {
			if n <= k {
				return all
			}
			var c []int64
			for i := int64(0); i < k; i++ {
				c = append(c, i*n/k)
			}
			return c
		}
		var third, sample, hub []int64
		r := rng.New(11)
		for v := int64(0); v < n; v++ {
			if v%3 == 0 {
				third = append(third, v)
			}
			if r.Uint64n(100) == 0 {
				sample = append(sample, v)
			}
			if hub == nil || gc.g.Degree(v) > gc.g.Degree(hub[0]) {
				hub = []int64{v}
			}
		}
		sets := []struct {
			name string
			cand []int64
		}{
			{"all", all}, {"none", []int64{}}, {"one", spread(1)}, {"64", spread(64)}, {"65", spread(65)},
			{"every-third", third}, {"hub", hub}, {"1%", sample},
		}

		var full []int
		for _, w := range []int{1, 16} {
			par.SetWorkers(w)
			s := &runScratch{}
			got := slices.Clone(s.sweepBoundaries(off, nil, false))
			if full == nil {
				full = got
			} else if !slices.Equal(full, got) {
				t.Fatalf("%s: full-scan ranges differ across worker counts: %v vs %v", gc.name, full, got)
			}
			for _, set := range sets {
				b := s.sweepBoundaries(off, set.cand, true)
				t.Run(fmt.Sprintf("%s/%s/w=%d", gc.name, set.name, w), func(t *testing.T) {
					checkPartition(t, b, len(set.cand))
					for c := 0; c+2 < len(b); c++ {
						if k := b[c+1] - b[c]; k < sweepMinChunk {
							t.Errorf("chunk %d holds %d candidates, want >= %d", c, k, sweepMinChunk)
						}
					}
					if set.name == "all" {
						for _, cut := range b {
							if _, on := slices.BinarySearch(full, cut); !on {
								t.Errorf("all-candidates cut %d is not a full-scan boundary %v", cut, full)
							}
						}
					}
					var heaviest int64
					for c := 0; c+1 < len(full); c++ {
						heaviest = max(heaviest, work(all[full[c]:full[c+1]]))
					}
					for c := 0; c+1 < len(b); c++ {
						chunk := set.cand[b[c]:b[c+1]]
						head := chunk[:min(len(chunk), sweepMinChunk-1)]
						if w, bound := work(chunk), heaviest+work(head); w > bound {
							t.Errorf("chunk %d [%d,%d) weighs %d, over the heaviest range %d plus its head %d", c, b[c], b[c+1], w, heaviest, bound-heaviest)
						}
					}
				})
			}
		}
		t.Run(gc.name+"/full", func(t *testing.T) { checkPartition(t, full, int(n)) })
	}
}

// checkPartition: b splits [0, count) into at most sweepMaxChunks non-empty
// chunks.
func checkPartition(t *testing.T, b []int, count int) {
	t.Helper()
	if len(b) == 0 || b[0] != 0 || b[len(b)-1] != count {
		t.Fatalf("boundaries %v do not run from 0 to %d", b, count)
	}
	for c := 0; c+1 < len(b); c++ {
		if b[c+1] <= b[c] {
			t.Fatalf("boundaries %v not strictly increasing at %d", b, c)
		}
	}
	if len(b)-1 > sweepMaxChunks {
		t.Fatalf("%d chunks, want <= %d", len(b)-1, sweepMaxChunks)
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
		{"max", func(a, b int64) int64 { return max(a, b) }, foldGeneric},
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
			buf := make([]Message, n/div)
			for i := range buf {
				buf[i] = Message{Dest: int64(r.Uint64n(uint64(n))), Value: int64(r.Uint64n(1000))}
			}
			for _, lookaside := range []bool{false, true} {
				b.Run(fmt.Sprintf("n=%d/sent=n/%d/lookaside=%v", n, div, lookaside), func(b *testing.B) {
					s := &runScratch{}
					ib := newInbox(n, nil)
					kind := pathCSR
					if lookaside {
						kind = pathLookaside
					}
					var sum int64
					for i := 0; i < b.N; i++ {
						s.build(path{kind: kind}, logTraffic(buf, n), ib, nil)
						for v := int64(0); v < n; v++ {
							if hasMessages(ib, v) {
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

// BenchmarkPullFloor is the bench behind pullMinEdges: one pure-broadcast
// superstep of about logical messages on a random graph of average degree
// 8, pushed (the CSR build) and pulled (the broadcaster stamp and, but for a
// saturated boundary, the receiver pass), plus the full-scan sweep that
// reads it: the inbox probe, or the gather. Either every vertex broadcasts
// (frontier=1/1: n = logical/8) or every fourth does (frontier=1/4: n =
// logical/2, the edge of the direction decision's dirGamma gate). 4*logical
// >= n, so the lookaside row pre-empts neither. docs/PERFORMANCE.md §3 has
// the table.
func BenchmarkPullFloor(b *testing.B) {
	for logical := int64(1 << 10); logical <= 1<<17; logical <<= 1 {
		for _, stride := range []int64{1, 4} {
			n := logical * stride / 8
			g, err := gen.ErdosRenyi(n, 4*n, uint64(logical))
			if err != nil {
				b.Fatal(err)
			}
			tr := &traffic{g: g, bufs: &gatherPool{size: 2 * g.MaxDegree()}}
			for v := int64(0); v < n; v += stride {
				if g.Degree(v) > 0 {
					tr.bcasts = append(tr.bcasts, bcastRec{src: v, val: v + 1})
					tr.logical += g.Degree(v)
				}
			}
			for _, cb := range []struct {
				name string
				f    func(a, b int64) int64
			}{{"none", nil}, {"min", Min}} {
				for _, pull := range []bool{false, true} {
					name := fmt.Sprintf("logical=2^%d/frontier=1/%d/%s/pull=%v", bits.Len64(uint64(logical))-1, stride, cb.name, pull)
					b.Run(name, func(b *testing.B) {
						s := &runScratch{symmetric: true}
						ib := newInbox(n, cb.f)
						cs := &chunkState{}
						cs.eng.graph, cs.eng.bufs, cs.ctx.engine = g, tr.bufs, &cs.eng
						var sum int64
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							p := path{kind: pathCSR}
							if pull {
								p.kind = pathPull
								ib.fillBcastLookaside(tr.bcasts, n)
							}
							s.build(p, tr, ib, nil)
							for v := int64(0); v < n; v++ {
								var msgs []int64
								switch {
								case pull:
									msgs = cs.gather(ib, v)
								case hasMessages(ib, v):
									msgs = ib.slice(v)
								}
								if len(msgs) > 0 {
									sum += msgs[0]
								}
							}
						}
						cs.ctx.returnBuf()
						if sum == 0 {
							b.Fatal("no messages read")
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*tr.logical), "ns/edge")
					})
				}
			}
		}
	}
}
