package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"graphxmt/internal/trace"
)

func phaseWith(tasks, issue, loads, stores, maxTask int64) *trace.Phase {
	p := &trace.Phase{Name: "test", Barriers: 1}
	p.AddTasks(tasks, issue, loads, stores)
	p.ObserveTask(maxTask)
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.StreamsPerProc = 0 },
		func(c *Config) { c.MemLatency = -1 },
		func(c *Config) { c.HotspotCycles = 0 },
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.BarrierBase = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestNewAnalyticPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAnalytic(Config{})
}

// Issue-bound regime: abundant tasks of pure compute scale linearly in P.
func TestAnalyticIssueBoundLinearScaling(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(1<<22, 1<<30, 0, 0, 300)
	t64 := m.PhaseCycles(p, 64)
	t128 := m.PhaseCycles(p, 128)
	speedup := t64 / t128
	if speedup < 1.8 || speedup > 2.1 {
		t.Fatalf("issue-bound speedup 64->128 = %v, want ~2", speedup)
	}
}

// Latency-bound regime: with only 64 tasks, adding processors past the
// point where streams outnumber tasks must not help.
func TestAnalyticLatencyBoundFlatScaling(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(64, 0, 1<<24, 0, 1<<24/64)
	t8 := m.PhaseCycles(p, 8)
	t128 := m.PhaseCycles(p, 128)
	if t8/t128 > 1.2 {
		t.Fatalf("latency-bound phase sped up %vx from 8 to 128 procs", t8/t128)
	}
}

// Hotspot regime: a single-word fetch-and-add chain is P-independent and
// costs ~HotspotCycles per op.
func TestAnalyticHotspotBound(t *testing.T) {
	cfg := DefaultConfig()
	m := NewAnalytic(cfg)
	p := phaseWith(1<<20, 0, 0, 0, 4)
	p.AddHot(trace.HotMsgCounter, 1<<24)
	t16 := m.PhaseCycles(p, 16)
	t128 := m.PhaseCycles(p, 128)
	if t16/t128 > 1.15 {
		t.Fatalf("hotspot phase sped up %vx", t16/t128)
	}
	want := float64(int64(1<<24) * int64(cfg.HotspotCycles))
	if t128 < want || t128 > 1.3*want {
		t.Fatalf("hotspot time %v, want ~%v", t128, want)
	}
}

// Critical path: one giant task bounds the phase regardless of P.
func TestAnalyticCriticalPath(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(1<<16, 0, 1<<20, 0, 1<<19) // one task holds half the memory ops
	t128 := m.PhaseCycles(p, 128)
	// The critical task alone needs maxTask * L cycles.
	atLeast := float64(1<<19) * float64(DefaultConfig().MemLatency) * 0.9
	if t128 < atLeast {
		t.Fatalf("critical-path phase %v cycles, want >= %v", t128, atLeast)
	}
}

func TestAnalyticEmptyPhaseIsOverheadOnly(t *testing.T) {
	cfg := DefaultConfig()
	m := NewAnalytic(cfg)
	p := &trace.Phase{Barriers: 1}
	got := m.PhaseCycles(p, 128)
	want := cfg.barrierCycles(128) + float64(cfg.DispatchCycles)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("empty phase = %v, want %v", got, want)
	}
}

func TestAnalyticMonotonicInProcs(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	f := func(tasks uint16, issue, mem uint32) bool {
		p := phaseWith(int64(tasks)+1, int64(issue), int64(mem), 0, int64(issue+mem)/(int64(tasks)+1)+1)
		prev := math.Inf(1)
		for _, procs := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			cur := m.PhaseCycles(p, procs)
			if cur > prev*1.001 { // allow fp slack
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticMonotonicInWork(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	f := func(issue, mem uint32) bool {
		small := phaseWith(1024, int64(issue), int64(mem), 0, 8)
		big := phaseWith(1024, int64(issue)*2+1, int64(mem)*2+1, 0, 8)
		return m.PhaseCycles(big, 64) >= m.PhaseCycles(small, 64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothMax(t *testing.T) {
	cases := []struct{ a, b float64 }{{0, 5}, {5, 0}, {3, 4}, {1000, 1}, {7, 7}}
	for _, c := range cases {
		got := smoothMax(c.a, c.b)
		lo := math.Max(c.a, c.b)
		hi := c.a + c.b
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("smoothMax(%v,%v) = %v outside [%v,%v]", c.a, c.b, got, lo, hi)
		}
	}
	// Dominant side should be nearly exact.
	if got := smoothMax(1000, 1); got > 1000.01 {
		t.Fatalf("smoothMax(1000,1) = %v, want ~1000", got)
	}
}

func TestSecondsAndPhaseSeconds(t *testing.T) {
	cfg := DefaultConfig()
	m := NewAnalytic(cfg)
	phases := []*trace.Phase{
		phaseWith(1<<16, 1<<20, 1<<20, 0, 64),
		phaseWith(1<<10, 1<<14, 1<<14, 0, 32),
	}
	total := Seconds(m, phases, 128)
	per := PhaseSeconds(m, phases, 128)
	if len(per) != 2 {
		t.Fatalf("per-phase len = %d", len(per))
	}
	if math.Abs(total-(per[0]+per[1])) > 1e-12 {
		t.Fatalf("total %v != sum %v", total, per[0]+per[1])
	}
	if per[0] <= per[1] {
		t.Fatal("bigger phase should take longer")
	}
}

func TestProcSweep(t *testing.T) {
	got := ProcSweep(128)
	want := []int{8, 16, 32, 64, 128}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	if got := ProcSweep(4); len(got) != 1 || got[0] != 4 {
		t.Fatalf("sweep(4) = %v", got)
	}
}

// ---- DES ----

func TestDESIssueBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	d := NewDES(t, cfg)
	// 4096 pure-issue tasks of 64 ops on 2 procs: 4096*64/2 cycles.
	p := phaseWith(4096, 4096*64, 0, 0, 64)
	p.Barriers = 0
	got := d.PhaseCycles(p, 2)
	want := float64(4096 * 64 / 2)
	if got < want || got > 1.1*want {
		t.Fatalf("DES issue-bound = %v, want ~%v", got, want)
	}
}

func TestDESLatencyVisible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	d := NewDES(t, cfg)
	// A single task of 100 serial memory ops: no parallelism can hide
	// latency; time ~ 100 * (L+1).
	p := phaseWith(1, 0, 100, 0, 100)
	p.Barriers = 0
	got := d.PhaseCycles(p, 8)
	want := float64(100 * (cfg.MemLatency + 1))
	if got < 0.9*want || got > 1.2*want {
		t.Fatalf("DES serial latency = %v, want ~%v", got, want)
	}
}

func TestDESHotspotSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	d := NewDES(t, cfg)
	p := &trace.Phase{}
	p.AddTasks(1024, 0, 0, 0)
	p.AddHot(trace.HotMsgCounter, 100000)
	got := d.PhaseCycles(p, 128)
	want := float64(100000 * cfg.HotspotCycles)
	if got < want {
		t.Fatalf("DES hotspot = %v, want >= %v", got, want)
	}
	if got > 1.3*want {
		t.Fatalf("DES hotspot = %v, want ~%v", got, want)
	}
}

// fatalTB turns a test failure into a panic carrying its message, so a
// test can check that the DES refuses a phase.
type fatalTB struct{ testing.TB }

func (fatalTB) Helper() {}

func (fatalTB) Fatalf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// A phase over the op cap fails the calling test by name instead of being
// simulated, or answered by another model.
func TestDESRefusesHugePhases(t *testing.T) {
	d := NewDES(fatalTB{t}, DefaultConfig())
	p := phaseWith(1<<16, 1<<23, 1<<23, 0, 64)
	p.Name, p.Index = "tri/count", 3
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "tri/count[3]") || !strings.Contains(msg, "cap") {
			t.Fatalf("refusal = %q, want one naming tri/count[3] and the cap", msg)
		}
	}()
	d.PhaseCycles(p, 64)
}

func TestDESEmptyPhase(t *testing.T) {
	d := NewDES(t, DefaultConfig())
	p := &trace.Phase{Barriers: 1}
	got := d.PhaseCycles(p, 16)
	cfg := DefaultConfig()
	want := cfg.barrierCycles(16) + float64(cfg.DispatchCycles)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("empty DES phase = %v, want %v", got, want)
	}
}

// The two models must agree within a modest factor across regimes; the
// analytic model is a bound-based approximation of the DES.
func TestModelsAgree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	a := NewAnalytic(cfg)
	d := NewDES(t, cfg)
	cases := []*trace.Phase{
		phaseWith(1<<14, 1<<18, 1<<18, 0, 32),     // balanced
		phaseWith(1<<14, 1<<20, 0, 0, 64),         // issue heavy
		phaseWith(200, 0, 1<<16, 0, 330),          // latency bound (few tasks)
		phaseWith(1<<12, 1<<14, 1<<17, 1<<15, 96), // memory heavy
	}
	hot := phaseWith(1<<12, 1<<14, 1<<14, 0, 16)
	hot.AddHot(trace.HotQueueTail, 1<<16)
	cases = append(cases, hot)
	for _, procs := range []int{4, 32, 128} {
		for i, p := range cases {
			p.Barriers = 0
			ta := a.PhaseCycles(p, procs)
			td := d.PhaseCycles(p, procs)
			ratio := ta / td
			if ratio < 1/2.5 || ratio > 2.5 {
				t.Errorf("case %d procs %d: analytic %v vs DES %v (ratio %.2f)",
					i, procs, ta, td, ratio)
			}
		}
	}
}

// DES scaling sanity: issue-bound profile speeds up close to 2x per
// processor doubling, like the analytic model says it must.
func TestDESScalesIssueBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	d := NewDES(t, cfg)
	p := phaseWith(1<<14, 1<<21, 0, 0, 128)
	p.Barriers = 0
	t4 := d.PhaseCycles(p, 4)
	t8 := d.PhaseCycles(p, 8)
	if s := t4 / t8; s < 1.7 || s > 2.2 {
		t.Fatalf("DES issue-bound speedup 4->8 = %v", s)
	}
}

func BenchmarkAnalyticPhase(b *testing.B) {
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(1<<20, 1<<28, 1<<28, 1<<26, 4096)
	for i := 0; i < b.N; i++ {
		m.PhaseCycles(p, 128)
	}
}

func BenchmarkDESPhase(b *testing.B) {
	cfg := DefaultConfig()
	d := NewDES(b, cfg)
	p := phaseWith(1<<10, 1<<14, 1<<14, 0, 48)
	for i := 0; i < b.N; i++ {
		d.PhaseCycles(p, 16)
	}
}

func TestDiagnoseRegimes(t *testing.T) {
	m := NewAnalytic(DefaultConfig())
	cases := []struct {
		name  string
		phase *trace.Phase
		procs int
		want  Regime
	}{
		{"issue", phaseWith(1<<22, 1<<30, 0, 0, 300), 128, IssueBound},
		{"latency", phaseWith(64, 0, 1<<24, 0, 1<<24/64), 128, LatencyBound},
		{"critical", phaseWith(1<<16, 0, 1<<20, 0, 1<<19), 128, CriticalPath},
		{"overhead", &trace.Phase{Barriers: 1}, 128, OverheadBound},
	}
	hot := phaseWith(1<<20, 0, 0, 0, 4)
	hot.AddHot(trace.HotMsgCounter, 1<<24)
	cases = append(cases, struct {
		name  string
		phase *trace.Phase
		procs int
		want  Regime
	}{"hotspot", hot, 128, HotspotBound})

	for _, c := range cases {
		got, share := m.Diagnose(c.phase, c.procs)
		if got != c.want {
			t.Fatalf("%s: regime = %s, want %s", c.name, got, c.want)
		}
		if share < 0 || share > 1.01 {
			t.Fatalf("%s: share = %v out of range", c.name, share)
		}
	}
}

func TestDiagnoseRegimeChangesWithProcs(t *testing.T) {
	// A moderate-parallelism phase is issue-bound at low P and
	// latency-bound once P*S exceeds its task count.
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(2048, 1<<24, 1<<22, 0, 1<<22/2048)
	low, _ := m.Diagnose(p, 1)
	high, _ := m.Diagnose(p, 128)
	if low != IssueBound {
		t.Fatalf("at 1 proc: %s, want issue-bound", low)
	}
	if high != LatencyBound {
		t.Fatalf("at 128 procs: %s, want latency-bound", high)
	}
}

func TestDESRespectsLowerBoundsProperty(t *testing.T) {
	// The DES simulates the mechanism the analytic bounds abstract, so its
	// finish time must respect each hard lower bound: issue slots and
	// hotspot serialization.
	cfg := DefaultConfig()
	cfg.DispatchCycles = 0
	cfg.BarrierBase = 0
	cfg.BarrierPerLogP = 0
	d := NewDES(t, cfg)
	f := func(tasksRaw, issueRaw, memRaw uint16, hotRaw uint8, procsRaw uint8) bool {
		tasks := int64(tasksRaw%2048) + 1
		issue := int64(issueRaw % 8192)
		mem := int64(memRaw % 8192)
		hot := int64(hotRaw % 64)
		procs := int(procsRaw%16) + 1
		p := phaseWith(tasks, issue, mem, 0, (issue+mem)/tasks+1)
		p.Barriers = 0
		p.AddHot(trace.HotMsgCounter, hot)
		got := d.PhaseCycles(p, procs)
		issueBound := float64(issue+mem+hot) / float64(procs)
		hotBound := float64(hot * int64(cfg.HotspotCycles))
		return got >= issueBound-1 && got >= hotBound-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsConversion(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Seconds(5e8); got != 1.0 {
		t.Fatalf("5e8 cycles at 500MHz = %v s, want 1", got)
	}
}

func TestPhaseCyclesDefaultProcs(t *testing.T) {
	// procs <= 0 selects the configured machine size.
	m := NewAnalytic(DefaultConfig())
	p := phaseWith(1<<16, 1<<20, 1<<20, 0, 40)
	if m.PhaseCycles(p, 0) != m.PhaseCycles(p, DefaultConfig().Procs) {
		t.Fatal("default procs not applied")
	}
}
