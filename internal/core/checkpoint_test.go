package core_test

// What a supervised boundary allocates: not more with the supersteps
// already completed, nor with the graph or its traffic.

import (
	"errors"
	"runtime"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// allocated is what a run of mk's program on g at one worker allocates,
// cut off by MaxSupersteps at steps.
func allocated(t *testing.T, g *graph.Graph, mk func() core.Config, steps int) int64 {
	t.Helper()
	cfg := mk()
	cfg.MaxSupersteps = steps
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := runRec(g, 1, cfg)
	runtime.ReadMemStats(&after)
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("MaxSupersteps=%d: want BudgetError, got %v", steps, err)
	}
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestBoundaryAllocIndependentOfHistory: a BFS wave relayed down a path,
// one vertex a superstep, under retry (so every boundary is recorded) with
// a recorder (so the profile is history too), cut off by MaxSupersteps at S
// and at 2S. A boundary costs O(n + traffic), so the run that is twice as
// long allocates twice as much; when every boundary re-copied the history
// it allocated close to four times as much.
func TestBoundaryAllocIndependentOfHistory(t *testing.T) {
	const steps = 1000
	g := gen.Path(2*steps + 100)
	mk := func() core.Config {
		cfg := core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: true}
		core.WithRetries(1)(&cfg)
		return cfg
	}
	allocated(t, g, mk, steps) // warm the engine's pools
	short, long := allocated(t, g, mk, steps), allocated(t, g, mk, 2*steps)
	if float64(long) > 2.5*float64(short) {
		t.Fatalf("%d supersteps allocated %d B, %d supersteps %d B: %.2fx, want <= 2.5x — the boundary snapshot is re-copying history",
			2*steps, long, steps, short, float64(long)/float64(short))
	}
}

// boundaryLoad keeps every vertex awake and every boundary full: every
// other vertex broadcasts and every 32nd sends a unicast, each superstep.
type boundaryLoad struct{}

func (boundaryLoad) InitialState(*graph.Graph, int64) int64 { return 0 }
func (boundaryLoad) Compute(v *core.VertexContext) {
	v.SetState(v.State() + int64(len(v.Messages())))
	if v.ID()%2 == 0 {
		v.SendToNeighbors(v.ID())
	}
	if v.ID()%32 == 0 {
		v.Send(v.ID()*7919%v.NumVertices(), v.ID())
	}
}

// TestBoundaryAllocationIsConstant: from the third boundary on, a
// checkpointed boundary refills the arrays of the snapshot two back and
// encodes into the run's payload buffer, so what it allocates does not
// grow with the graph or its traffic. At 2^17 vertices one copy of the
// states is 1 MiB and the payload over 2 MiB; the eight boundaries a run
// of twelve supersteps has past a run of four's — each a record, a
// periodic write and a prune that verifies, with the superstep before it —
// must stay under 64 KiB apiece.
func TestBoundaryAllocationIsConstant(t *testing.T) {
	g := gen.Path(1 << 17)
	mk := func() core.Config {
		cfg := core.Config{Program: boundaryLoad{}}
		core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir(), Keep: 2})(&cfg)
		return cfg
	}
	allocated(t, g, mk, 4) // warm the engine's pools
	short, long := allocated(t, g, mk, 4), allocated(t, g, mk, 12)
	if per := (long - short) / 8; per > 64<<10 {
		t.Errorf("a boundary allocated %d B; from the third boundary on, want under 64 KiB (4 supersteps %d B, 12 %d B)", per, short, long)
	}
}
