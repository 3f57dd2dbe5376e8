package main

// The exit-status contract, driven through the real binary: 0 success, 1
// runtime error, 2 usage error. xmtbench reads no input file; its runtime
// error row is an output it cannot create.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bin is the xmtbench binary TestMain builds.
var bin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "xmtbench-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "xmtbench")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building xmtbench: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

func TestExitStatus(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-scale", "6", "-ef", "4"}
	cases := []struct {
		name   string
		args   []string
		status int
		out    string // regexp the first stdout line (status 0) or stderr must match
	}{
		{"ok/table1", append([]string{"-exp", "table1"}, small...), 0,
			`^graphxmt bench: RMAT scale=6 ef=4 seed=1, 128 simulated processors, analytic model$`},
		{"usage/bad scale", []string{"-scale", "0"}, 2, `-scale must be in \(0,40\], got 0`},
		{"usage/bad direction", append([]string{"-direction", "sideways"}, small...), 2, `-direction must be auto, push or pull`},
		{"usage/unknown experiment", append([]string{"-exp", "fig9"}, small...), 2, `unknown experiment "fig9"`},
		{"fatal/unwritable csv directory", append([]string{"-exp", "fig1", "-csv", filepath.Join(file, "csv")}, small...), 1, `not a directory`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var ee *exec.ExitError
			if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
				t.Fatal(err)
			}
			if got := cmd.ProcessState.ExitCode(); got != tc.status {
				t.Errorf("exit status %d, want %d\n%s", got, tc.status, stderr.String())
			}
			text := stderr.String()
			if tc.status == 0 {
				text, _, _ = strings.Cut(stdout.String(), "\n")
			}
			if !regexp.MustCompile(tc.out).MatchString(text) {
				t.Errorf("output %q does not match %q", text, tc.out)
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Errorf("panicked:\n%s", stderr.String())
			}
		})
	}
}
