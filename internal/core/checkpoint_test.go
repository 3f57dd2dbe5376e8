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
// cut off by MaxSupersteps at steps. The run builds a fresh arena, so that
// the runs a test compares pay alike for it, whatever arena the last run
// left (sync.Pool, which keeps it, drops puts at random under -race).
func allocated(t *testing.T, g *graph.Graph, mk func() core.Config, steps int) int64 {
	t.Helper()
	cfg := mk()
	cfg.MaxSupersteps = steps
	core.DropArena()
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
// a recorder (so the profile is history too), cut off by MaxSupersteps at 1,
// S and 2S. A boundary costs O(n + traffic), so supersteps S…2S allocate
// about what supersteps 1…S did; when every boundary re-copied the history
// they allocated close to three times as much. Increments, so that what a
// run allocates whatever its length does not pad the ratio.
func TestBoundaryAllocIndependentOfHistory(t *testing.T) {
	const steps = 1000
	g := gen.Path(2*steps + 100)
	mk := func() core.Config {
		cfg := core.Config{Program: bspalg.BFSProgram{Source: 0}, SparseActivation: true}
		core.WithRetries(1)(&cfg)
		return cfg
	}
	allocated(t, g, mk, steps) // warm what a process initializes once
	one, short, long := allocated(t, g, mk, 1), allocated(t, g, mk, steps), allocated(t, g, mk, 2*steps)
	early, late := short-one, long-short
	if float64(late) > 2.5*float64(early) {
		t.Fatalf("supersteps 1…%d allocated %d B, supersteps %d…%d %d B: %.2fx, want <= 2.5x — the boundary snapshot is re-copying history",
			steps, early, steps, 2*steps, late, float64(late)/float64(early))
	}
	t.Logf("supersteps 1…%d allocated %d B, %d…%d %d B: %.2fx", steps, early, steps, 2*steps, late, float64(late)/float64(early))
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

// wedgeLoad is TC's wedge superstep every superstep: pure unicast, every
// fourth vertex sending a run of eight messages to one destination, so
// each boundary takes the runs path and the next sweep reads the log.
type wedgeLoad struct{}

func (wedgeLoad) InitialState(*graph.Graph, int64) int64 { return 0 }
func (wedgeLoad) Compute(v *core.VertexContext) {
	v.SetState(v.State() + int64(len(v.Messages())))
	if v.ID()%4 == 0 {
		for i := range int64(8) {
			v.Send(v.ID()*7919%v.NumVertices(), v.ID()+i)
		}
	}
}

// TestBoundaryAllocationIsConstant: from the third boundary on, a
// checkpointed boundary refills the arrays of the snapshot two back and
// encodes into the run's payload buffer, and a log the runs path delivered
// goes back to the free list a superstep later, so what a boundary
// allocates does not grow with the graph or its traffic. At 2^17 vertices
// one copy of the states is 1 MiB and the payload over 2 MiB; the eight
// boundaries a run of twelve supersteps has past a run of four's — each a
// record, a periodic write and a prune that verifies, with the superstep
// before it — must stay under 64 KiB apiece, under broadcast records
// beside a unicast and under TC's wedges.
func TestBoundaryAllocationIsConstant(t *testing.T) {
	g := gen.Path(1 << 17)
	for name, prog := range map[string]core.Program{"records": boundaryLoad{}, "wedges": wedgeLoad{}} {
		t.Run(name, func(t *testing.T) {
			mk := func() core.Config {
				cfg := core.Config{Program: prog}
				core.WithCheckpoint(&ckpt.Policy{Dir: t.TempDir(), Keep: 2})(&cfg)
				return cfg
			}
			allocated(t, g, mk, 4) // warm what a process initializes once
			short, long := allocated(t, g, mk, 4), allocated(t, g, mk, 12)
			if per := (long - short) / 8; per > 64<<10 {
				t.Errorf("a boundary allocated %d B; from the third boundary on, want under 64 KiB (4 supersteps %d B, 12 %d B)", per, short, long)
			}
			capt := &stepCapture{}
			if _, _, err := runRec(g, 1, core.Config{Program: prog, Obs: capt, MaxSupersteps: 3}); !errors.As(err, new(*core.BudgetError)) {
				t.Fatalf("want BudgetError, got %v", err)
			}
			if name == "wedges" && capt.steps[1].Delivery != "runs" {
				t.Fatalf("wedges delivered by %q, want runs", capt.steps[1].Delivery)
			}
		})
	}
}
