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
	"slices"
	"strings"
	"testing"

	"graphxmt/internal/experiments"
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
		{"usage/unknown experiment", append([]string{"-exp", "fig9"}, small...), 2, `unknown experiment "fig9"`},
		{"usage/unknown model", append([]string{"-model", "des"}, small...), 2, `flag provided but not defined: -model`},
		{"usage/bad sources", append([]string{"-exp", "table1", "-sources", "5,64"}, small...), 2, `source 64 out of range \[0,64\)`},
		{"fatal/graph500 run timeout", append([]string{"-exp", "graph500", "-run-timeout", "1ns"}, small...), 1,
			`^xmtbench: experiments: graph500 bsp: graph500: key \d+: .*run exceeded`},
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
			// Usage errors are refused before the banner, except a -sources
			// list, whose range check needs the built graph.
			if tc.status == 2 && !slices.Contains(tc.args, "-sources") && stdout.Len() > 0 {
				t.Errorf("a usage error printed to stdout:\n%s", stdout.String())
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Errorf("panicked:\n%s", stderr.String())
			}
		})
	}
}

// TestDocListsEveryExperiment: the package comment lists every row of the
// experiment table with its doc line, and EXPERIMENTS.md names each.
func TestDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Select("all") {
		line := regexp.MustCompile(`(?m)^//\t-exp ` + regexp.QuoteMeta(e.Name) + ` +` + regexp.QuoteMeta(e.Doc) + `$`)
		if !line.MatchString(doc) {
			t.Errorf("the doc comment has no line %q", "-exp "+e.Name+"  "+e.Doc)
		}
		if !strings.Contains(string(md), "-exp "+e.Name+"`") && !strings.Contains(string(md), "-exp "+e.Name+" ") {
			t.Errorf("EXPERIMENTS.md does not name -exp %s", e.Name)
		}
	}
}

// TestEveryBSPPassObserved: every BSP engine pass an experiment makes
// reports to the session's sink, including the passes that record no work
// profile. fig2's BFS and both of aux's CC and BFS run with a nil recorder.
func TestEveryBSPPassObserved(t *testing.T) {
	for exp, want := range map[string]int{"fig2": 1, "aux": 2} {
		out := filepath.Join(t.TempDir(), "run.jsonl")
		cmd := exec.Command(bin, "-exp", exp, "-scale", "8", "-ef", "8", "-obs-format", "jsonl", "-obs-out", out)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("-exp %s: %v\n%s", exp, err, b)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(b, []byte(`{"ev":"run_start","label":"bsp"`)); got < want {
			t.Errorf("-exp %s: %d bsp runs observed, want at least %d", exp, got, want)
		}
	}
}
