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
)

// bin is the graphgen binary TestMain builds.
var bin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "graphgen-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "graphgen")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building graphgen: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		args   []string
		status int
		out    string // regexp the first stdout line (status 0) or stderr must match
	}{
		{"ok/rmat", []string{"-type", "rmat", "-scale", "6", "-ef", "4", "-o", filepath.Join(dir, "g.gxmt")}, 0,
			`^wrote graph\{undirected, 64 vertices, \d+ edges\} to \S+g\.gxmt \(csr1\)$`},
		{"ok/grid csr2", []string{"-type", "grid", "-rows", "4", "-cols", "5", "-format", "csr2", "-o", filepath.Join(dir, "g.csr2")}, 0,
			`^wrote graph\{undirected, 20 vertices, 31 edges\} to \S+g\.csr2 \(csr2\)$`},
		{"usage/no output", []string{"-type", "ring"}, 2, `-o is required`},
		{"usage/bad scale", []string{"-scale", "0", "-o", filepath.Join(dir, "x")}, 2, `-scale must be in \(0,40\], got 0`},
		{"usage/bad format", []string{"-format", "xml", "-o", filepath.Join(dir, "x")}, 2, `unknown format "xml"`},
		{"usage/bad type", []string{"-type", "hypercube", "-o", filepath.Join(dir, "x")}, 2, `unknown type "hypercube"`},
		{"fatal/missing output directory", []string{"-type", "ring", "-o", filepath.Join(dir, "absent", "g.gxmt")}, 1, `absent/g\.gxmt: no such file or directory`},
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
