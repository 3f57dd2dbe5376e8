package obs_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

// startFlags parses args against a fresh obs flag set and calls Start,
// restoring the global worker count afterward.
func startFlags(t *testing.T, args ...string) (*obs.Session, error) {
	t.Helper()
	prev := par.Workers()
	t.Cleanup(func() { par.SetWorkers(prev) })
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c.Start()
}

func TestCLIFlagsUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-workers", "-2"},
		{"-obs-format", "yaml", "-obs-out", "x"},
		{"-obs-format", "jsonl"},  // requires -obs-out
		{"-obs-format", "chrome"}, // requires -obs-out
	}
	for _, args := range cases {
		if _, err := startFlags(t, args...); err == nil {
			t.Errorf("args %v: expected usage error", args)
		}
	}
}

func TestCLIFlagsOff(t *testing.T) {
	sess, err := startFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Sink != nil {
		t.Fatal("sink built with observability off")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFlagsWorkersApplied(t *testing.T) {
	sess, err := startFlags(t, "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := par.Workers(); got != 3 {
		t.Fatalf("par.Workers() = %d, want 3", got)
	}
}

func TestCLIFlagsWorkersEnv(t *testing.T) {
	t.Setenv("GRAPHXMT_WORKERS", "2")
	sess, err := startFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := par.Workers(); got != 2 {
		t.Fatalf("par.Workers() = %d, want 2 from env", got)
	}
}

func TestCLIFlagsWorkersEnvInvalid(t *testing.T) {
	t.Setenv("GRAPHXMT_WORKERS", "lots")
	if _, err := startFlags(t); err == nil {
		t.Fatal("invalid GRAPHXMT_WORKERS accepted")
	}
	// An explicit -workers overrides a broken env var.
	sess, err := startFlags(t, "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
}

// TestCLIChromeOutput runs the jsonl and chrome formats through Start/Close
// against temp files and checks the chrome output validates.
func TestCLIChromeOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trace.json")
	sess, err := startFlags(t, "-obs-format", "chrome", "-obs-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Sink == nil {
		t.Fatal("no sink for chrome format")
	}
	feedSynthetic(sess.Sink)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := validateChromeTrace(f); err != nil {
		t.Fatalf("CLI chrome output invalid: %v", err)
	}
}

// TestChromeTraceFile validates an externally produced trace named by
// GRAPHXMT_TRACE_FILE — CI generates one with bspgraph on a scale-16 BFS
// and runs exactly this test against it. Skips when the variable is unset.
func TestChromeTraceFile(t *testing.T) {
	path := os.Getenv("GRAPHXMT_TRACE_FILE")
	if path == "" {
		t.Skip("GRAPHXMT_TRACE_FILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := validateChromeTrace(f); err != nil {
		t.Fatalf("trace %s invalid: %v", path, err)
	}
}
