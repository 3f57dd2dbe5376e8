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

	"graphxmt/internal/trace"
)

// bin is the profile binary TestMain builds; profileFile a two-phase work
// profile.
var bin, profileFile string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "profile-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "profile")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building profile: %v\n%s", err, out)
			return 1
		}
		rec := trace.NewRecorder()
		for i := 0; i < 2; i++ {
			rec.StartPhase("bsp/superstep", i).AddTasks(1000, 4000, 2000, 1000)
		}
		profileFile = filepath.Join(dir, "p.json")
		f, err := os.Create(profileFile)
		if err == nil {
			err = rec.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func TestExitStatus(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{\"phases\": [1, "), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		status int
		out    string // regexp the first stdout line (status 0) or stderr must match
	}{
		{"ok/analytic", []string{"-in", profileFile}, 0, `^profile: 2 phases from \S+p\.json$`},
		{"ok/des phases", []string{"-in", profileFile, "-model", "des", "-phases"}, 0, `^profile: 2 phases from \S+p\.json$`},
		{"usage/no input", nil, 2, `-in is required`},
		{"usage/bad latency", []string{"-in", profileFile, "-latency", "-1"}, 2, `-latency must be >= 0 cycles`},
		{"usage/bad procs", []string{"-in", profileFile, "-procs", "0"}, 2, `-procs must be > 0, got 0`},
		{"usage/unknown model", []string{"-in", profileFile, "-model", "exact"}, 2, `unknown model "exact"`},
		{"fatal/missing profile", []string{"-in", profileFile + ".absent"}, 1, `p\.json\.absent: no such file or directory`},
		{"fatal/corrupt profile", []string{"-in", corrupt}, 1, `decoding profile`},
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
