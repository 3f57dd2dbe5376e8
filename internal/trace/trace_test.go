package trace

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPhaseAccumulation(t *testing.T) {
	p := &Phase{Name: "x"}
	p.AddTasks(10, 100, 50, 25)
	p.AddTasks(5, 10, 5, 5)
	if p.Tasks != 15 || p.Issue != 110 || p.Loads != 55 || p.Stores != 30 {
		t.Fatalf("got %+v", p)
	}
	if p.Mem() != 85 {
		t.Fatalf("Mem() = %d, want 85", p.Mem())
	}
	p.AddHot(HotMsgCounter, 7)
	p.AddHot(HotMsgCounter, 3)
	p.AddHot(HotQueueTail, 4)
	if p.Hot[HotMsgCounter] != 10 || p.Hot[HotQueueTail] != 4 {
		t.Fatalf("hot = %v", p.Hot)
	}
	if p.HotTotal() != 14 {
		t.Fatalf("HotTotal = %d", p.HotTotal())
	}
	if p.MaxHot() != 10 {
		t.Fatalf("MaxHot = %d", p.MaxHot())
	}
	if p.TotalOps() != 110+85+14 {
		t.Fatalf("TotalOps = %d", p.TotalOps())
	}
}

func TestObserveTaskKeepsMax(t *testing.T) {
	p := &Phase{}
	for _, v := range []int64{5, 100, 7, 99} {
		p.ObserveTask(v)
	}
	if p.MaxTask != 100 {
		t.Fatalf("MaxTask = %d, want 100", p.MaxTask)
	}
}

func TestObserveTaskConcurrent(t *testing.T) {
	p := &Phase{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.ObserveTask(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if p.MaxTask != 7999 {
		t.Fatalf("MaxTask = %d, want 7999", p.MaxTask)
	}
}

func TestPhaseConcurrentAdds(t *testing.T) {
	p := &Phase{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.AddTasks(1, 2, 3, 4)
				p.AddHot(HotReduction, 1)
			}
		}()
	}
	wg.Wait()
	if p.Tasks != 8000 || p.Issue != 16000 || p.Loads != 24000 || p.Stores != 32000 {
		t.Fatalf("got %+v", p)
	}
	if p.Hot[HotReduction] != 8000 {
		t.Fatalf("hot = %d", p.Hot[HotReduction])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if !r.Discard() {
		t.Fatal("nil recorder should report Discard")
	}
	p := r.StartPhase("x", 0)
	p.AddTasks(1, 1, 1, 1) // must not panic
	if r.Detail() {
		t.Fatal("nil recorder should not request detail")
	}
	if got := r.Phases(); got != nil {
		t.Fatalf("nil recorder Phases = %v", got)
	}
	r.Reset() // must not panic
}

func TestRecorderPhaseOrderAndNames(t *testing.T) {
	r := NewRecorder()
	r.StartPhase("a", 0)
	r.StartPhase("b", 0)
	r.StartPhase("a", 1)
	ph := r.Phases()
	if len(ph) != 3 || ph[0].Name != "a" || ph[1].Name != "b" || ph[2].Index != 1 {
		t.Fatalf("phases = %v", ph)
	}
	as := r.PhasesNamed("a")
	if len(as) != 2 || as[0].Index != 0 || as[1].Index != 1 {
		t.Fatalf("PhasesNamed = %v", as)
	}
}

// TestAppendStates: the accessor converts only the phases past len(dst), so
// a caller that keeps its last result converts each phase once, and the
// states round-trip through RestoreState.
func TestAppendStates(t *testing.T) {
	r := NewRecorder()
	r.StartPhase("a", 0).AddTasks(1, 2, 3, 4)
	r.StartPhase("b", 0).AddHot(HotReduction, 5)
	states := r.AppendStates(nil)
	if len(states) != 2 || states[0].Tasks != 1 || states[1].Hot[HotReduction] != 5 {
		t.Fatalf("states = %+v", states)
	}
	// A phase already converted is not read again; a new one is appended.
	r.Phases()[0].AddTasks(100, 0, 0, 0)
	r.StartPhase("a", 1).AddTasks(7, 0, 0, 0)
	states = r.AppendStates(states)
	if len(states) != 3 || states[0].Tasks != 1 || states[2].Tasks != 7 || states[2].Index != 1 {
		t.Fatalf("states after second call = %+v", states)
	}
	restored := NewRecorder()
	restored.RestoreState(states)
	if got := restored.AppendStates(nil); !slices.Equal(got, states) {
		t.Fatalf("round trip through RestoreState: %+v, want %+v", got, states)
	}
	var none *Recorder
	if got := none.AppendStates(states[:1]); len(got) != 1 {
		t.Fatalf("nil recorder AppendStates = %+v, want dst unchanged", got)
	}
}

func TestRecorderTotals(t *testing.T) {
	r := NewRecorder()
	p1 := r.StartPhase("a", 0)
	p1.AddTasks(2, 10, 20, 30)
	p1.AddHot(HotMsgCounter, 5)
	p1.ObserveTask(40)
	p2 := r.StartPhase("b", 0)
	p2.AddTasks(3, 1, 2, 3)
	p2.ObserveTask(99)
	tot := r.Totals()
	if tot.Tasks != 5 || tot.Issue != 11 || tot.Loads != 22 || tot.Stores != 33 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Hot[HotMsgCounter] != 5 || tot.MaxTask != 99 || tot.Barriers != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.StartPhase("a", 0)
	r.Reset()
	if len(r.Phases()) != 0 {
		t.Fatal("reset did not clear phases")
	}
}

func TestTotalsAdditiveProperty(t *testing.T) {
	// Totals over k identical phases = k * single phase counts.
	f := func(kRaw uint8, issue, loads, stores uint16) bool {
		k := int(kRaw%10) + 1
		r := NewRecorder()
		for i := 0; i < k; i++ {
			p := r.StartPhase("p", i)
			p.AddTasks(1, int64(issue), int64(loads), int64(stores))
		}
		tot := r.Totals()
		return tot.Issue == int64(k)*int64(issue) &&
			tot.Loads == int64(k)*int64(loads) &&
			tot.Stores == int64(k)*int64(stores) &&
			tot.Tasks == int64(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotClassString(t *testing.T) {
	if HotMsgCounter.String() != "msg-counter" {
		t.Fatalf("got %q", HotMsgCounter.String())
	}
	if HotClass(200).String() == "" {
		t.Fatal("unknown class should still format")
	}
}

func TestAddDetail(t *testing.T) {
	p := &Phase{}
	p.AddDetail(TaskCost{1, 2}, TaskCost{3, 4})
	p.AddDetail(TaskCost{5, 6})
	if len(p.Detail) != 3 || p.Detail[2].Issue != 5 {
		t.Fatalf("detail = %v", p.Detail)
	}
}

func TestPhaseString(t *testing.T) {
	p := &Phase{Name: "bfs/level", Index: 3}
	p.AddTasks(7, 1, 2, 3)
	s := p.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	p1 := r.StartPhase("bsp/superstep", 0)
	p1.AddTasks(100, 200, 300, 400)
	p1.AddHot(HotMsgCounter, 55)
	p1.ObserveTask(42)
	p2 := r.StartPhase("bsp/scan", 1)
	p2.AddTasks(7, 8, 9, 10)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, got := r.Phases(), back.Phases()
	if len(orig) != len(got) {
		t.Fatalf("phases = %d, want %d", len(got), len(orig))
	}
	for i := range orig {
		a, b := orig[i], got[i]
		if a.Name != b.Name || a.Index != b.Index || a.Tasks != b.Tasks ||
			a.Issue != b.Issue || a.Loads != b.Loads || a.Stores != b.Stores ||
			a.MaxTask != b.MaxTask || a.Barriers != b.Barriers || a.Hot != b.Hot {
			t.Fatalf("phase %d mismatch:\n%v\n%v", i, a, b)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99, "phases": []}`,
		`{"version": 1, "phases": [{"name": "x", "tasks": -5}]}`,
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestJSONEmptyRecorder(t *testing.T) {
	r := NewRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Phases()) != 0 {
		t.Fatal("expected empty profile")
	}
}
