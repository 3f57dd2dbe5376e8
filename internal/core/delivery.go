package core

import (
	"iter"
	"math"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

// Delivery: what a superstep boundary does with the superstep's traffic.
// One value describes the traffic (traffic), one function decides what
// happens to it (choosePath), five primitives do it — groupByDest,
// groupRuns, lookasideScatter, lookasideFold, denseFold, plus the pull
// stamp in parallel.go — and one value holds what the next sweep reads
// (inbox). Every path hands each vertex the same message sequence, and
// every combining path folds it left to right in send order, so the choice
// is a pure host-speed decision that never reaches Result or the charged
// profile; docs/PERFORMANCE.md §3 has the table.

// traffic is one superstep's outgoing messages, held from the sweep that
// writes them until the boundary's last consumer (the checkpoint) is done —
// or, when the runs path delivered it, until the next sweep has read it in
// place (inbox.held): the unicast log, written once and spliced by pointer,
// plus the broadcast records, copied once from the chunks' buffers when the
// sweep forked (concatBcasts). Everything after the sweep reads the
// messages one way — all — but the next sweep after the runs path.
type traffic struct {
	sends  msgLog
	bcasts []bcastRec
	// logical counts one message per Send and one per edge of every record.
	logical int64
	g       *graph.Graph
	bufs    *gatherPool // lends all its adjacency decode buffer
}

// all enumerates the (destination, value) pairs in send order: the log's
// messages, and each record's value once per neighbor of its source, in
// adjacency order, where the record stands in the stream — after the first
// seq log messages, inside a run or between two. Record order + adjacency
// order IS the per-edge send order of the broadcasts; seq merges them with
// the Sends. The adjacency is read the same way on both graph
// representations, decoded into a buffer borrowed only when there are
// records. The body is inlined into the loops (the compiler needs the
// iterator free of defers for that), so a pass costs what the hand-written
// loop did.
func (t traffic) all() iter.Seq2[int64, int64] {
	return func(yield func(dest, value int64) bool) {
		// run is the unread rest of the log run to dest at stream position
		// at; c reads the runs after it.
		c, dest, run, at := logCursor{segs: t.sends.segs}, int64(0), []int64(nil), int64(0)
		if len(t.bcasts) > 0 {
			buf := t.bufs.get()
			for _, r := range t.bcasts {
				for at < r.seq {
					if len(run) == 0 {
						dest, run = c.next()
					}
					k := min(int64(len(run)), r.seq-at)
					for _, v := range run[:k] {
						if !yield(dest, v) {
							t.bufs.put(buf)
							return
						}
					}
					run, at = run[k:], at+k
				}
				for _, w := range t.g.DecodeNeighbors(r.src, buf) {
					if !yield(w, r.val) {
						t.bufs.put(buf)
						return
					}
				}
			}
			t.bufs.put(buf)
		}
		for {
			for _, v := range run {
				if !yield(dest, v) {
					return
				}
			}
			if len(c.hdrs) == 0 {
				break
			}
			dest, run = c.next()
		}
		for _, s := range c.segs {
			hdrs, vals := s.hdrs(), s.vals()
			for i := len(hdrs) - 1; i >= 0; i-- {
				dest, run := hdrs[i]>>runLenBits, vals[:hdrs[i]&runLenMask]
				for _, v := range run {
					if !yield(dest, v) {
						return
					}
				}
				vals = vals[len(run):]
			}
		}
	}
}

// logCursor reads a log run by run where all must stop inside one to place
// a record: segs are the segments after the current one, whose unread run
// headers (last run first) and values are hdrs and vals.
type logCursor struct {
	segs       []logSeg
	hdrs, vals []int64
}

// next returns the next run's destination and values.
func (c *logCursor) next() (int64, []int64) {
	if len(c.hdrs) == 0 {
		c.hdrs, c.vals, c.segs = c.segs[0].hdrs(), c.segs[0].vals(), c.segs[1:]
	}
	h := c.hdrs[len(c.hdrs)-1]
	c.hdrs = c.hdrs[:len(c.hdrs)-1]
	run := c.vals[:h&runLenMask]
	c.vals = c.vals[len(run):]
	return h >> runLenBits, run
}

// shares splits the traffic into at most C contiguous runs for the C
// workers of a counting sort and returns their boundaries: runs of whole
// log segments, or record ranges of near-equal summed degree (one hub's
// record cannot make a share C times longer than its peers). One share is
// the whole traffic, and so is a mixed log + records stream at any C:
// choosePath never forks one.
func (s *arena) shares(t *traffic, C int) []int {
	b := s.shareBnds[:0]
	switch nrec := len(t.bcasts); {
	case nrec == 0:
		for c := 0; c <= C; c++ {
			b = append(b, c*len(t.sends.segs)/C)
		}
	case C == 1 || t.sends.sealed > 0:
		b = append(b, 0, nrec)
	default:
		s.bcastWork = ensureInt64(s.bcastWork, nrec+1)
		bw, g, bcasts := s.bcastWork, t.g, t.bcasts
		par.ForChunked(nrec, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				bw[i] = g.Degree(bcasts[i].src) + 1
			}
		})
		bw[nrec] = 0
		par.ExclusivePrefixSum(bw)
		b = par.WeightedBoundaries(b, nrec, C, func(i int) int64 { return bw[i] })
	}
	s.shareBnds = b
	return b
}

// part is share c of the split bnds describes.
func (t *traffic) part(bnds []int, c int) traffic {
	switch {
	case len(bnds) == 2:
		return *t
	case len(t.bcasts) == 0:
		return traffic{sends: msgLog{segs: t.sends.segs[bnds[c]:bnds[c+1]]}}
	}
	return traffic{bcasts: t.bcasts[bnds[c]:bnds[c+1]], g: t.g, bufs: t.bufs}
}

// path is a delivery decision: what the boundary builds for the next sweep.
// saturated is not decided but found: build sets it on a pull whose every
// possible receiver receives (inbox.saturated).
type path struct {
	kind      pathKind
	saturated bool
}

type pathKind uint8

const (
	// pathNone: nothing was delivered (the terminal superstep).
	pathNone pathKind = iota
	// pathLookaside: stamp only the receivers, O(traffic) — lookasideScatter,
	// or lookasideFold with a combiner.
	pathLookaside
	// pathCSR: the sequential CSR build, O(n + traffic) — groupByDest with
	// one share, or denseFold with a combiner.
	pathCSR
	// pathCSRPar: the CSR build with one share per worker — groupByDest,
	// never with a combiner.
	pathCSRPar
	// pathPull: stamp the broadcasters and build nothing; the next compute
	// sweep gathers (chunkState.gather).
	pathPull
	// pathRuns: group the log's run headers by destination, O(n + runs),
	// and move no value; the next compute sweep reads the runs where Send
	// wrote them (groupRuns, chunkState.readRuns).
	pathRuns
)

// String is the name reports, JSONL lines and metrics carry.
func (p path) String() string {
	if p.saturated {
		return "pull+saturated"
	}
	return [...]string{"none", "lookaside", "csr", "csr-par", "pull", "runs"}[p.kind]
}

// The two host-speed constants of delivery. Every path delivers the same
// sequences, so neither can reach a message.
const (
	// deliverParallelMin is the logical-message count below which forking
	// the counting sort costs more than it saves.
	deliverParallelMin = 1 << 14
	// lookasideCutoff is how far below n a superstep's message count must
	// be for delivery to stamp the lookaside (O(sent), random access)
	// instead of building the CSR (O(n) passes, sequential):
	// sent*lookasideCutoff < n. BenchmarkDeliverCutoff (delivery plus the
	// scan that reads it) has the lookaside 13% ahead at n/4 and level at
	// n/2 once the arrays outgrow the cache, and ahead all the way to n
	// while they fit.
	lookasideCutoff = 4
	// runsMinLen is the mean log run length from which the runs path
	// delivers pure unicast traffic: unicast >= runs*runsMinLen. The path
	// holds 8 B per run, not 8 B per message, beside the log both paths
	// hold; BenchmarkDeliverRunLength (delivery plus the sweep that reads
	// it) has it 3.8x behind the CSR build in time at a mean of 1, 1.5x at
	// 2, 1.1x at 8 and 1.2x ahead at 64.
	runsMinLen = 2
)

// pathInputs is everything a delivery decision may depend on: logical and
// physical counters, run constants and the worker count — never the
// messages themselves.
type pathInputs struct {
	logical  int64 // messages, one per broadcast edge
	unicast  int64 // messages in the log
	runs     int64 // runs in the log (msgLog.runs)
	records  int   // broadcast records
	n        int64 // graph.NumVertices
	combiner bool
	dir      DirectionMode // the superstep's recorded direction (direction.go)
	workers  int           // par.Workers()
}

// choosePath decides how a superstep's traffic is delivered and names the
// predicate that decided. It is the one place the routing lives; deliver
// is a switch on its result.
//
//   - A superstep far below n takes the lookaside whatever the direction
//     says (a gather sweep over every edge costs more than reading a few
//     stored messages) — unless it is large enough to sort in parallel.
//   - Records are pullable when the superstep is pure broadcast (a pull
//     cannot deliver a Send), and pulled when the recorded direction says so.
//   - Any other traffic with a combiner folds sequentially (denseFold):
//     the exact per-edge fold order for any combiner.
//   - Pure unicast whose log runs are long enough is grouped by run, and
//     the next sweep reads it in place (groupRuns).
//   - Everything else is the counting sort, forked when there are workers
//     and messages enough to pay for it, few enough for int32 cursors, and
//     the traffic is not a mixed log + records stream.
func choosePath(in pathInputs) (p path, why string) {
	eligible := in.records > 0 && in.unicast == 0
	parallel := in.workers > 1 && in.logical >= deliverParallelMin && in.logical < math.MaxInt32 &&
		(in.unicast == 0 || in.records == 0)
	switch {
	case !parallel && in.logical*lookasideCutoff < min(in.n, math.MaxInt32):
		p.kind, why = pathLookaside, "logical*lookasideCutoff < n"
	case eligible && in.dir == DirPull:
		p.kind, why = pathPull, "recorded direction"
	case in.combiner:
		p.kind, why = pathCSR, "a combiner folds sequentially"
	case in.records == 0 && in.unicast > 0 && in.unicast >= in.runs*runsMinLen:
		p.kind, why = pathRuns, "pure unicast, unicast >= runs*runsMinLen"
	case parallel:
		p.kind, why = pathCSRPar, "workers > 1, deliverParallelMin <= logical < 2^31"
	default:
		p.kind, why = pathCSR, "one worker, mixed traffic, or logical outside [deliverParallelMin, 2^31)"
	}
	return p, why
}

// inbox is what delivery builds and the next compute sweep reads, in
// whichever representation the last boundary chose: the CSR — off is n+1
// offsets into val — or, when the superstep's traffic was far below n, the
// lookaside, which touches only the receivers instead of rebuilding O(n)
// offsets: span[v] packs a receiver's slice of val as lo<<32 | count.
//
// recv, set by every path, is the one answer to who received: own, or the
// run's connected-vertex bitmap after a pull whose receivers are every
// vertex with a neighbor (saturated, or without a combiner under the full
// scan, where the gather finds out). Each build first retires own's bits.
//
// After a pull boundary there are no stored messages at all:
// chunkState.gather reads the broadcasters' values off the vertex's own
// neighbor list. Bit w of sent says w broadcast (stamped counts the bits);
// look[w] is then its value, and otherwise the identity of the run's
// built-in fold — 0, or MaxInt64 under Min — so a fold needs no test per
// arc.
//
// After a runs boundary val is not used: off is n+1 offsets into refs, one
// reference per run of the log — segment<<26 | start in block<<13 | length
// — which held, the superstep's log, keeps in place until the sweep after
// the one that reads it begins (Run).
//
// A resume re-derives the inbox by re-delivering; a retry's rollback never
// touches it (no sweep writes it).
type inbox struct {
	off       []int64
	val       []int64
	span      []int64 // grown by the first lookaside delivery
	recv, own []uint64
	lookaside bool

	runs bool
	refs []int64
	held msgLog

	pull, saturated bool
	look            []int64
	sent            []uint64
	stamped         int64
	// looked says the run filled look and sent (ensureLook).
	looked bool
	// fold and combine are the run's combiner, resolved once (resolveFold).
	fold    foldKind
	combine func(a, b int64) int64
}

// reset makes ib, by capacity, an n-vertex run's inbox before any delivery:
// nobody received, and the lookaside is filled on its first use.
func (ib *inbox) reset(n int64, combine func(a, b int64) int64) {
	ib.off = ensureInt64(ib.off, int(n+1))
	clear(ib.off)
	ib.own = zeroedWords(ib.own, n)
	ib.recv, ib.lookaside, ib.pull, ib.saturated, ib.looked, ib.runs = ib.own, false, false, false, false, false
	ib.fold, ib.combine = resolveFold(combine), combine
}

// slice returns vertex v's stored messages.
func (ib *inbox) slice(v int64) []int64 {
	if !ib.lookaside {
		return ib.val[ib.off[v]:ib.off[v+1]]
	}
	if bit(ib.recv, v) == 0 {
		return nil
	}
	lo := ib.span[v] >> 32
	return ib.val[lo : lo+ib.span[v]&math.MaxUint32]
}

// deliver routes one superstep's traffic into ib for the next sweep and
// returns the number of delivered (post-combining) messages and the path
// taken. prev is the candidates of the sweep that sent it under sparse
// activation, nil under the full scan (build); dir is the superstep's
// recorded direction decision.
//
// A pull boundary returns what the push would have delivered without
// building it: with no combiner every logical message arrives, and the sum
// of the frontier's out-degrees equals the sum of its in-degrees on the
// symmetric adjacency every graph has (Run checks the gathered total
// against it — AsymmetricGraphError); with a combiner it is the number of
// vertices with a stamped neighbor (build). Pulled messages arrive in
// neighbor order, a property of the graph, so they are bit-identical at
// any worker count, and they equal the push send order exactly, because
// adjacency lists are ascending and senders run, hence send, in ascending
// order. A source that broadcast more than once in the superstep has no
// single value to stamp, so that superstep is pushed instead.
func (s *arena) deliver(t *traffic, ib *inbox, prev []int64, dir DirectionMode) (int64, path) {
	n := t.g.NumVertices()
	in := pathInputs{
		logical: t.logical, unicast: t.sends.sealed, runs: t.sends.runs(), records: len(t.bcasts),
		n: n, combiner: ib.combine != nil,
		dir: dir, workers: par.Workers(),
	}
	p, _ := choosePath(in)
	if p.kind == pathPull && !ib.fillBcastLookaside(t.bcasts, n) {
		// A source broadcast twice: push.
		in.dir = DirPush
		p, _ = choosePath(in)
	}
	delivered := s.build(p, t, ib, prev)
	p.saturated = ib.saturated
	return delivered, p
}

// build delivers t into ib the way p says (for pathPull the broadcasters
// are already stamped) and returns the delivered count. It first retires
// the last delivery's receivers: every word of own under the full scan
// (prev nil) or when prev has more entries, and under sparse activation
// the words of prev — the candidates of the sweep just run, which hold
// every receiver — so a near-empty superstep pays nothing per vertex.
func (s *arena) build(p path, t *traffic, ib *inbox, prev []int64) int64 {
	n, combine, sparse := t.g.NumVertices(), ib.combine, prev != nil
	if !sparse || len(prev) > len(ib.own) {
		clear(ib.own)
		prev = nil
	}
	for _, v := range prev {
		ib.own[v>>6] = 0
	}
	ib.recv, ib.lookaside, ib.pull, ib.saturated = ib.own, p.kind == pathLookaside, p.kind == pathPull, false
	ib.runs = p.kind == pathRuns
	C := 1
	switch p.kind {
	case pathRuns:
		groupRuns(t, ib, n)
		return t.logical
	case pathPull:
		// Every vertex with a neighbor broadcast: on symmetric adjacency all
		// the neighbors of each are stamped, they are the receivers, and no
		// receiver pass is needed. That leans on the symmetry deliver
		// documents, so the graph's first such boundary (the arena keeps the
		// verdict) makes the pass anyway; if it disagrees no boundary on the
		// graph is saturated, and the sweep that gathers behind its stamps
		// falls short of the count reported here: Run's AsymmetricGraphError.
		connected := s.pullRanges(t)
		if combine == nil && !sparse {
			ib.recv = s.connected
			return t.logical // the gather tests the bit per arc; Run checks its total against this
		}
		saturated := !sparse && ib.stamped == connected
		if saturated && s.symmetric {
			ib.saturated, ib.recv = true, s.connected
			return connected
		}
		receivers := s.pullReceivers(t, ib)
		switch {
		case combine == nil:
			return t.logical
		case saturated:
			s.symmetric = receivers == connected
			ib.saturated = s.symmetric
			return connected
		}
		return receivers
	case pathLookaside:
		if int64(len(ib.span)) < n {
			ib.span = make([]int64, n)
		}
		if combine != nil {
			return lookasideFold(t, ib)
		}
		return lookasideScatter(t, ib)
	case pathCSRPar:
		C = deliverChunks(n)
	}
	if combine != nil {
		return s.denseFold(t, ib, n)
	}
	ib.val = ensureInt64(ib.val, int(t.logical))
	s.groupByDest(t, n, C, ib.off, ib.val, ib.recv)
	return t.logical
}

// deliverChunkBudget is the counting-sort scratch budget: the fan-in C
// keeps C*n int32 destination counters, and C is chosen so that array
// stays within this many entries (64 MiB) however wide the host is.
const deliverChunkBudget = 1 << 24

// deliverChunks picks the parallel counting sort's fan-in: enough shares to
// feed the workers (2 per worker so the tail balances), bounded only by
// the scratch-memory budget rather than a fixed cap — a 48-core host gets
// 96-way fan-in on any graph up to ~175k vertices and degrades
// proportionally beyond. The sort's output is the unique stable grouping
// whatever C is, so tracking the worker count here cannot perturb results.
func deliverChunks(n int64) int {
	C := par.Workers() * 2
	if n > 0 {
		if byBudget := int(deliverChunkBudget / n); byBudget < C {
			C = byBudget
		}
	}
	if C < 2 {
		C = 2
	}
	return C
}

// groupByDest scatters the traffic's values into val grouped by
// destination, preserving send order within each destination, fills off
// (length n+1) with the group boundaries and sets the bit in recv of every
// destination with a message: a stable two-pass counting sort over C shares
// of the traffic (shares). The output is the unique
// stable grouping, independent of the internal split, so the fan-in may
// track the worker count freely (deliverChunks); the sequential sort is
// C = 1, which forks nothing.
func (s *arena) groupByDest(t *traffic, n int64, C int, off, val []int64, recv []uint64) {
	bnds := s.shares(t, C)
	need := n * int64(len(bnds)-1)
	if t.logical >= math.MaxInt32 {
		// Only the sequential sort gets here (choosePath); a superstep that
		// moves 32 GiB of messages can afford its own cursor row.
		countingSort(s, t, bnds, make([]int64, need), n, off, val, recv)
		return
	}
	if int64(cap(s.counts)) < need {
		s.counts = make([]int32, need)
	}
	countingSort(s, t, bnds, s.counts[:need], n, off, val, recv)
}

// countingSort is groupByDest over cursors of width K, one row of n per
// share. The rows are share-major — share c owns counts[c*n : (c+1)*n] —
// so two workers never write the same cache line; destination-major, the
// counters of one destination (and of a skewed graph's hot low-numbered
// hubs) shared a line that every increment stole from the other workers.
func countingSort[K int32 | int64](s *arena, t *traffic, bnds []int, counts []K, n int64, off, val []int64, recv []uint64) {
	R, need := len(bnds)-1, int64(len(counts))

	// Pass 1: per-(share, destination) counts — one length per run when the
	// share is log alone.
	par.ForCoarse(R, func(c int) {
		row := counts[int64(c)*n : int64(c+1)*n]
		clear(row)
		if share := t.part(bnds, c); len(share.bcasts) == 0 {
			countRuns(row, share.sends.segs)
		} else {
			for dest := range share.all() {
				row[dest]++
			}
		}
	})

	// Exclusive prefix sum in (dest, share) order — a transposed walk of the
	// matrix, blocked over destination ranges: total each range's columns,
	// scan the totals, then turn every column into its start cursors. They
	// realize the stable order: destination-major, then send (share,
	// position) order within a destination. One share is one block, whose
	// cursors start at 0; blocks are whole words of recv (sweepChunkSize).
	block, blocks := int(n), 1
	if R > 1 {
		block = sweepChunkSize(int(n))
		blocks = max(1, (int(n)+block-1)/block)
	}
	s.rangeCnt = ensureInt64(s.rangeCnt, blocks)
	rangeCnt := s.rangeCnt
	rangeCnt[0] = 0
	if blocks > 1 {
		par.ForFixedChunks(int(n), block, func(r, lo, hi int) {
			var total int64
			for base := int64(0); base < need; base += n {
				for _, k := range counts[base+int64(lo) : base+int64(hi)] {
					total += int64(k)
				}
			}
			rangeCnt[r] = total
		})
		par.ExclusivePrefixSum(rangeCnt)
	}
	par.ForFixedChunks(int(n), block, func(r, lo, hi int) {
		run := K(rangeCnt[r])
		for d := int64(lo); d < int64(hi); d++ {
			off[d] = int64(run)
			for i := d; i < need; i += n {
				counts[i], run = run, run+counts[i]
			}
			if int64(run) > off[d] {
				setBit(recv, d)
			}
		}
	})
	off[n] = t.logical

	// Pass 2: scatter through the per-(share, dest) cursors, a run at a
	// time when the share is log alone.
	par.ForCoarse(R, func(c int) {
		row := counts[int64(c)*n : int64(c+1)*n]
		if share := t.part(bnds, c); len(share.bcasts) == 0 {
			for _, s := range share.sends.segs {
				scatterRuns(row, val, s)
			}
		} else {
			for dest, value := range share.all() {
				p := row[dest]
				row[dest] = p + 1
				val[p] = value
			}
		}
	})
}

// countRuns adds the length of every run in segs to its destination's
// count, in any order: the headers as they lie in the blocks.
func countRuns[K int32 | int64](row []K, segs []logSeg) {
	for _, s := range segs {
		for _, h := range s.hdrs() {
			row[h>>runLenBits] += K(h & runLenMask)
		}
	}
}

// scatterRuns moves every run of segment s, in send order, to its
// destination's cursor in val: a store for a run of one, a copy for a
// longer one. A function of its own per segment, so that its loop keeps its
// state in registers.
func scatterRuns[K int32 | int64](row []K, val []int64, s logSeg) {
	p := 0
	for i := msgBlockLen - 1; i >= msgBlockLen-int(s.nrun); i-- {
		h := s.blk[i&(msgBlockLen-1)]
		dest, n := h>>runLenBits, int(h&runLenMask)
		at := row[dest]
		row[dest] = at + K(n)
		if n == 1 {
			val[at] = s.blk[p&(msgBlockLen-1)]
		} else {
			copy(val[at:], s.blk[p:p+n])
		}
		p += n
	}
}

// groupRuns is the runs path's boundary: a stable counting sort of the
// log's run headers by destination, which moves no value. refs gets one
// reference per run, each destination's in send order, off (n+1) their
// boundaries and recv the destinations; the next sweep reads the runs from
// the log (chunkState.readRuns), which Run hands to the inbox to hold.
func groupRuns(t *traffic, ib *inbox, n int64) {
	off, recv := ib.off, ib.recv
	clear(off)
	for _, s := range t.sends.segs {
		for _, h := range s.hdrs() {
			off[h>>runLenBits]++
			setBit(recv, h>>runLenBits)
		}
	}
	var at int64
	for d, k := range off {
		off[d], at = at, at+k
	}
	ib.refs = ensureInt64(ib.refs, int(at))
	refs := ib.refs
	for i, s := range t.sends.segs {
		hdrs, p := s.hdrs(), int64(0)
		for j := len(hdrs) - 1; j >= 0; j-- {
			dest, k := hdrs[j]>>runLenBits, hdrs[j]&runLenMask
			refs[off[dest]] = int64(i)<<(2*runLenBits) | p<<runLenBits | k
			off[dest]++
			p += k
		}
	}
	// off[d] is now where d's group ends: the next one's start.
	copy(off[1:], off[:n])
	off[0] = 0
}

// lookasideScatter stores every message in the lookaside, touching only
// the receivers: O(traffic) work, no O(n) pass at all. The first pass
// counts each receiver's messages, marking it in recv on first arrival:
// span[dest] is the negated count.
func lookasideScatter(t *traffic, ib *inbox) int64 {
	recv, span := ib.recv, ib.span
	for dest := range t.all() {
		if bit(recv, dest) == 0 {
			setBit(recv, dest)
			span[dest] = -1
		} else {
			span[dest]--
		}
	}
	val := ensureInt64(ib.val, int(t.logical))
	var pos int64
	for dest, value := range t.all() {
		pos = place(val, span, pos, dest, value)
	}
	ib.val = val
	return t.logical
}

// place stores value in dest's slice of val in the second pass. The first
// message to reach dest claims val[pos:pos+count] and turns span[dest] from
// the negated count into lo<<32 | cursor, which ends as the lo<<32 | count
// the sweep reads. Slices are laid out in order of first arrival.
func place(val, span []int64, pos, dest, value int64) int64 {
	sp := span[dest]
	if sp < 0 {
		sp, pos = pos<<32, pos-sp
	}
	val[sp>>32+sp&math.MaxUint32] = value
	span[dest] = sp + 1
	return pos
}

// lookasideFold combines per destination in exact send order, touching
// only the receivers: one slot of val per receiver, appended on first
// arrival.
func lookasideFold(t *traffic, ib *inbox) int64 {
	recv, span, combine := ib.recv, ib.span, ib.combine
	val := ib.val[:0]
	for dest, value := range t.all() {
		if bit(recv, dest) == 0 {
			setBit(recv, dest)
			span[dest] = int64(len(val))<<32 | 1
			val = append(val, value)
		} else {
			i := span[dest] >> 32
			val[i] = combine(val[i], value)
		}
	}
	ib.val = val
	return int64(len(val))
}

// denseFold is the sequential combining CSR build: one slot per
// destination that received anything, left-folded in exact send order —
// correct for ANY combiner. The first
// arrival at a destination sets its recv bit, which the compaction reads.
func (s *arena) denseFold(t *traffic, ib *inbox, n int64) int64 {
	s.acc = ensureInt64(s.acc, int(n))
	recv, acc, combine := ib.recv, s.acc, ib.combine
	var delivered int64
	for dest, value := range t.all() {
		if bit(recv, dest) != 0 {
			acc[dest] = combine(acc[dest], value)
		} else {
			setBit(recv, dest)
			acc[dest] = value
			delivered++
		}
	}
	val := ensureInt64(ib.val, int(delivered))
	off := ib.off
	var pos int64
	for v := int64(0); v < n; v++ {
		off[v] = pos
		if bit(recv, v) != 0 {
			val[pos] = acc[v]
			pos++
		}
	}
	off[n] = pos
	ib.val = val
	return delivered
}
