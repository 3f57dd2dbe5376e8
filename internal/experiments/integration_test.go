package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/trace"
)

// TestEndToEndPipeline exercises the full user workflow: generate a
// workload, persist it, reload it, run a kernel recording a profile,
// serialize the profile, reload it, and confirm the machine model produces
// identical simulated times from the round-tripped artifacts.
func TestEndToEndPipeline(t *testing.T) {
	s := testSetup()
	g, err := BuildGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Persist and reload the graph.
	gpath := filepath.Join(dir, "workload.gxmt")
	if err := graphio.WriteBinaryFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graphio.LoadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}

	// Run BFS on the reloaded graph, recording a profile.
	rec := trace.NewRecorder()
	src := g2.MaxDegreeVertex()
	res, err := bspalg.BFS(g2, src, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps == 0 {
		t.Fatal("no supersteps")
	}

	// Serialize the profile and reload it.
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ppath := filepath.Join(dir, "bfs.profile.json")
	if err := os.WriteFile(ppath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := trace.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// The round-tripped profile evaluates identically at every processor
	// count and under modified machine parameters.
	model := machine.NewAnalytic(machine.DefaultConfig())
	for _, procs := range []int{8, 64, 128} {
		orig := machine.Seconds(model, rec.Phases(), procs)
		back := machine.Seconds(model, rec2.Phases(), procs)
		if orig != back {
			t.Fatalf("%d procs: %.9f vs %.9f after round trip", procs, orig, back)
		}
	}
	slow := machine.DefaultConfig()
	slow.MemLatency *= 4
	slowModel := machine.NewAnalytic(slow)
	if a, b := machine.Seconds(slowModel, rec.Phases(), 128), machine.Seconds(slowModel, rec2.Phases(), 128); a != b {
		t.Fatalf("slow machine: %.9f vs %.9f", a, b)
	}
}

// TestDeterminism asserts the repository's reproducibility guarantee: two
// identical runs produce bit-identical simulated times for every
// experiment artifact.
func TestDeterminism(t *testing.T) {
	s := testSetup()
	g1, err := BuildGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := table1(g1, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := table1(g2, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].BSP != b.Rows[i].BSP || a.Rows[i].GraphCT != b.Rows[i].GraphCT {
			t.Fatalf("%s: times differ across identical runs", a.Rows[i].Algorithm)
		}
	}
	f1a, err := fig1(g1, s)
	if err != nil {
		t.Fatal(err)
	}
	f1b, err := fig1(g2, s)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range f1a.BSP {
		for it := range f1a.BSP[pi] {
			if f1a.BSP[pi][it] != f1b.BSP[pi][it] {
				t.Fatalf("fig1 differs at procs[%d] iter %d", pi, it)
			}
		}
	}
}
