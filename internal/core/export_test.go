package core

// LookasideCutoff and LookasideDeliveries let tests replay deliver's
// per-superstep representation decision and check the engine made it.
const LookasideCutoff = lookasideCutoff

func LookasideDeliveries() int64 { return lookasideBuilt.Load() }

// MsgBlockLen lets tests put send counts either side of a block boundary.
const MsgBlockLen = msgBlockLen
