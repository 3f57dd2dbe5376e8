package core

import "graphxmt/internal/trace"

// CostSchedule describes what each engine operation costs on the simulated
// Cray XMT, in the cost classes of package trace. The defaults model the
// paper's implementation: a BSP layer written in XMT-C on top of GraphCT
// "without native support for message features such as enqueueing and
// dequeueing", where message buffers are claimed with fetch-and-add and the
// runtime scans every vertex's queue each superstep.
//
// The same schedule is used by the generic engine and by the streaming
// triangle-counting evaluator (package bspalg), so their simulated times
// agree by construction.
type CostSchedule struct {
	// ScanLoadsPerVertex is charged for every vertex in the graph at every
	// superstep: the runtime inspects each vertex's message-queue head and
	// halt flag to decide whether the vertex runs. This full scan is what
	// makes the paper's early/late BSP iterations "two orders of magnitude"
	// more expensive than their shared-memory counterparts.
	ScanLoadsPerVertex int64

	// ActiveIssuePerVertex and ActiveLoadsPerVertex are the dispatch cost
	// of running one active vertex's Compute (state load, program
	// dispatch, vote bookkeeping).
	ActiveIssuePerVertex  int64
	ActiveLoadsPerVertex  int64
	ActiveStoresPerVertex int64

	// RecvLoadsPerMsg and RecvIssuePerMsg are charged per message
	// consumed from the inbox.
	RecvLoadsPerMsg int64
	RecvIssuePerMsg int64

	// SendStoresPerMsg, SendLoadsPerMsg and SendIssuePerMsg are charged
	// per message emitted: slot claim in the destination queue, payload
	// write, bounds/branching.
	SendStoresPerMsg int64
	SendLoadsPerMsg  int64
	SendIssuePerMsg  int64

	// DeliverLoadsPerMsg and DeliverStoresPerMsg are the superstep-boundary
	// message routing pass (the counting sort that turns the global send
	// buffer into per-vertex inboxes).
	DeliverLoadsPerMsg  int64
	DeliverStoresPerMsg int64

	// HotMsgChunk is the number of message slots allocated per
	// fetch-and-add on the single global buffer cursor. One hotspot op is
	// charged per chunk; smaller chunks mean more serialization — the
	// mechanism the paper names when discussing BSP scalability limits.
	HotMsgChunk int64
}

// DefaultCosts returns the cost schedule used by the experiments.
func DefaultCosts() CostSchedule {
	return CostSchedule{
		ScanLoadsPerVertex:    2,
		ActiveIssuePerVertex:  3,
		ActiveLoadsPerVertex:  2,
		ActiveStoresPerVertex: 1,
		RecvLoadsPerMsg:       5,
		RecvIssuePerMsg:       2,
		SendStoresPerMsg:      10,
		SendLoadsPerMsg:       5,
		SendIssuePerMsg:       4,
		DeliverLoadsPerMsg:    8,
		DeliverStoresPerMsg:   3,
		HotMsgChunk:           32,
	}
}

// ChargeSuperstep charges one superstep to its two phases: to scan the
// inspection of scanned vertices; to ph the dispatch of active vertices, the
// messages received, the messages sent, their global-cursor fetch-and-adds
// (one per HotMsgChunk slots) and their delivery, plus what the program
// charged itself (VertexContext.Charge). Run charges every superstep through
// it, and so does an evaluator that replays the engine's supersteps without
// running them (bspalg.StreamingTriangles), so the two cannot disagree.
func (c CostSchedule) ChargeSuperstep(scan, ph *trace.Phase, scanned, active, received, sent, extraIssue, extraLoads, extraStores int64) {
	scan.AddTasks(scanned, 0, c.ScanLoadsPerVertex*scanned, 0)
	scan.ObserveTask(c.ScanLoadsPerVertex)
	ph.AddTasks(active+sent,
		c.ActiveIssuePerVertex*active+c.RecvIssuePerMsg*received+c.SendIssuePerMsg*sent+extraIssue,
		c.ActiveLoadsPerVertex*active+c.RecvLoadsPerMsg*received+(c.SendLoadsPerMsg+c.DeliverLoadsPerMsg)*sent+extraLoads,
		c.ActiveStoresPerVertex*active+(c.SendStoresPerMsg+c.DeliverStoresPerMsg)*sent+extraStores)
	chunk := max(c.HotMsgChunk, 1)
	ph.AddHot(trace.HotMsgCounter, (sent+chunk-1)/chunk)
	ph.ObserveTask(c.ActiveIssuePerVertex + c.ActiveLoadsPerVertex + c.RecvIssuePerMsg + c.RecvLoadsPerMsg)
}
