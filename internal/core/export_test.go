package core

// LookasideCutoff lets tests replay choosePath's per-superstep
// representation decision and check the engine made it.
const LookasideCutoff = lookasideCutoff

// MsgBlockLen lets tests put send counts either side of a block boundary.
const MsgBlockLen = msgBlockLen
