package main

// The exit-status contract, driven through the real binary: 0 success, 1
// runtime error, 2 usage error.

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

	"graphxmt/internal/gen"
	"graphxmt/internal/graphio"
)

// bin is the graphct binary TestMain builds; graphFile a small RMAT graph.
var bin, graphFile string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "graphct-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "graphct")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building graphct: %v\n%s", err, out)
			return 1
		}
		g, err := gen.RMAT(gen.RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 5})
		if err == nil {
			graphFile = filepath.Join(dir, "g.gxmt")
			err = graphio.WriteBinaryFile(graphFile, g)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func TestExitStatus(t *testing.T) {
	data, err := os.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.gxmt")
	if err := os.WriteFile(truncated, data[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		status int
		out    string // regexp the first stdout line (status 0) or stderr must match
	}{
		{"ok/degrees,cc", []string{"-g", graphFile, "-kernels", "degrees,cc"}, 0, `^loaded graph\{undirected, 64 vertices, \d+ edges\}$`},
		{"usage/no graph", []string{"-kernels", "cc"}, 2, `-g is required`},
		{"usage/bad procs", []string{"-g", graphFile, "-procs", "0"}, 2, `-procs must be > 0, got 0`},
		{"usage/bad samples", []string{"-g", graphFile, "-samples", "-1"}, 2, `-samples must be >= 0`},
		{"usage/unknown kernel", []string{"-g", graphFile, "-kernels", "sssp"}, 2, `unknown kernel "sssp"`},
		{"fatal/missing graph file", []string{"-g", graphFile + ".absent"}, 1, `g\.gxmt\.absent: no such file or directory`},
		{"fatal/corrupt graph file", []string{"-g", truncated}, 1, `corrupt snapshot`},
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
