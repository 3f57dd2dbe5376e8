package faultinject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"graphxmt/internal/core"
	"graphxmt/internal/graph"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("panic@3:42; failwrite@2;kill@5 ; panic@init:7")
	if err != nil {
		t.Fatal(err)
	}
	if p.PanicAt[3] != 42 || p.PanicAt[initStep] != 7 {
		t.Fatalf("PanicAt = %v", p.PanicAt)
	}
	if !p.FailWriteAt[2] || !p.KillAt[5] {
		t.Fatalf("FailWriteAt = %v, KillAt = %v", p.FailWriteAt, p.KillAt)
	}

	if p, err := ParsePlan(""); err != nil || p == nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}

	for _, bad := range []string{
		"panic@3",        // missing vertex
		"panic@x:1",      // bad superstep
		"panic@3:q",      // bad vertex
		"failwrite@",     // missing superstep
		"kill@-2",        // negative superstep
		"explode@3",      // unknown directive
		"failwrite@init", // init has no checkpoint boundary
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestParsePlanRobustnessVerbs(t *testing.T) {
	p, err := ParsePlan("panicn@2:17:3; slowstep@1:250; enospc@4; tornwrite@6")
	if err != nil {
		t.Fatal(err)
	}
	pn := p.PanicNAt[2]
	if pn == nil || pn.Vertex != 17 {
		t.Fatalf("PanicNAt = %v", p.PanicNAt)
	}
	// The remaining counter fires exactly Count times, once per attempt.
	fired := 0
	for i := 0; i < 5; i++ {
		if pn.remaining.Add(-1) >= 0 {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("panicn@2:17:3 fired %d times, want 3", fired)
	}
	if ss := p.SlowStepAt[1]; ss == nil || ss.Millis != 250 {
		t.Fatalf("SlowStepAt = %v", p.SlowStepAt)
	}
	if !p.ENOSPCAt[4] || !p.TornWriteAt[6] {
		t.Fatalf("ENOSPCAt = %v, TornWriteAt = %v", p.ENOSPCAt, p.TornWriteAt)
	}

	for _, bad := range []string{
		"panicn@1:2",     // missing count
		"panicn@1:2:0",   // count must be >= 1
		"panicn@1:2:x",   // bad count
		"panicn@-1:2:1",  // negative superstep
		"panicn@1:-2:1",  // negative vertex
		"slowstep@1",     // missing millis
		"slowstep@1:0",   // stall must be >= 1ms
		"slowstep@x:5",   // bad superstep
		"enospc@",        // missing superstep
		"enospc@init",    // init has no checkpoint boundary
		"tornwrite@-1",   // negative superstep
		"tornwrite@2:3",  // superstep only
		"panicn@1:2:3:4", // too many fields
		"slowstep@1:2:3", // too many fields
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestENOSPCWriter(t *testing.T) {
	p, err := ParsePlan("enospc@2")
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hooks()
	if h == nil || h.WrapWrite == nil {
		t.Fatal("enospc plan produced no write hook")
	}
	var cut bytes.Buffer
	w := h.WrapWrite(2, &cut)
	_, werr := w.Write(make([]byte, 100))
	if !errors.Is(werr, errInjectedENOSPC) {
		t.Fatalf("targeted write: err=%v, want ErrInjectedENOSPC", werr)
	}
	if !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("injected error does not wrap syscall.ENOSPC: %v", werr)
	}
}

func TestTornWriteHook(t *testing.T) {
	p, err := ParsePlan("tornwrite@3")
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hooks()
	if h == nil || h.TornWrite == nil {
		t.Fatal("tornwrite plan produced no torn-write hook")
	}
	if h.TornWrite(2) || !h.TornWrite(3) {
		t.Fatal("torn-write hook fires at the wrong boundary")
	}
}

func TestHooksNilWhenUnused(t *testing.T) {
	p, err := ParsePlan("panic@1:2")
	if err != nil {
		t.Fatal(err)
	}
	if h := p.Hooks(); h != nil {
		t.Fatalf("panic-only plan produced hooks %+v", h)
	}
	if (&Plan{}).Hooks() != nil {
		t.Fatal("empty plan produced hooks")
	}
}

func TestFailingWriter(t *testing.T) {
	p, err := ParsePlan("failwrite@4")
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hooks()
	if h == nil || h.WrapWrite == nil {
		t.Fatal("failwrite plan produced no write hook")
	}

	// Untargeted steps pass through untouched.
	var clean bytes.Buffer
	w := h.WrapWrite(3, &clean)
	if n, err := w.Write(make([]byte, 100)); n != 100 || err != nil {
		t.Fatalf("untargeted write: n=%d err=%v", n, err)
	}

	// The targeted step lets a partial header through, then fails every
	// subsequent write — the stream is cut mid-file, not cleanly at zero.
	var cut bytes.Buffer
	w = h.WrapWrite(4, &cut)
	n, err := w.Write(make([]byte, 100))
	if !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("targeted write: err=%v", err)
	}
	if n == 0 || n >= 100 {
		t.Fatalf("targeted write reported n=%d; want a strict partial write", n)
	}
	if cut.Len() != n {
		t.Fatalf("wrote %d bytes to the underlying stream, reported %d", cut.Len(), n)
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("second write after failure: %v", err)
	}
}

func TestKillHook(t *testing.T) {
	p, err := ParsePlan("kill@7")
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hooks()
	if h == nil || h.Kill == nil {
		t.Fatal("kill plan produced no kill hook")
	}
	if h.Kill(6) || !h.Kill(7) {
		t.Fatal("kill hook fires at the wrong boundary")
	}
}

type probeProgram struct{ name string }

func (probeProgram) InitialState(*graph.Graph, int64) int64 { return 0 }
func (probeProgram) Compute(v *core.VertexContext)          { v.VoteToHalt() }
func (p probeProgram) ProgramName() string                  { return p.name }

func TestWrapProgram(t *testing.T) {
	inner := probeProgram{name: "probe"}
	if p := (&Plan{}).WrapProgram(inner); p != core.Program(inner) {
		t.Fatal("plan with no panics should return the program unchanged")
	}

	plan, err := ParsePlan("panic@2:9")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := plan.WrapProgram(inner)
	if wrapped == core.Program(inner) {
		t.Fatal("panic plan did not wrap the program")
	}
	// The wrapper must forward the inner program's identity so resume
	// fingerprints match the unwrapped program.
	if got := core.ProgramNameOf(wrapped); got != "probe" {
		t.Fatalf("wrapped program name %q, want %q", got, "probe")
	}
}

func TestFlipBitAndTruncateTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte{0x00, 0xff, 0x10, 0x20}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 1, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{0x00, 0xfe, 0x10, 0x20}) {
		t.Fatalf("after FlipBit: % x", data)
	}
	if err := FlipBit(path, 99, 0); err == nil {
		t.Fatal("FlipBit past EOF accepted")
	}

	if err := TruncateTail(path, 3); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{0x00}) {
		t.Fatalf("after TruncateTail: % x", data)
	}
	if err := TruncateTail(path, 5); err == nil {
		t.Fatal("TruncateTail beyond file size accepted")
	}
}
