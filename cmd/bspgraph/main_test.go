package main

// The exit-status contract documented at the top of main.go, driven through
// the real binary: 0 success, 1 runtime error, 2 usage error, 3 interrupted
// with a resumable checkpoint.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
)

// bin is the bspgraph binary TestMain builds; graphFile a small RMAT graph
// on which CC runs enough supersteps to be killed at boundary 1, and
// directedFile its edge list built directed.
var bin, graphFile, directedFile string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bspgraph-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "bspgraph")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building bspgraph: %v\n%s", err, out)
			return 1
		}
		g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 5})
		if err == nil {
			graphFile = filepath.Join(dir, "g.gxmt")
			err = graphio.WriteBinaryFile(graphFile, g)
		}
		if err == nil {
			directedFile = filepath.Join(dir, "directed.gxmt")
			err = graphio.WriteBinaryFile(directedFile, graph.MustBuild(g.NumVertices(), g.EdgeList(), graph.BuildOptions{Directed: true}))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

// run executes bspgraph and returns its exit status, its stdout without the
// "loaded ... in <duration>" line (the one line that reads a clock), and
// its stderr.
func run(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("bspgraph %v: %v", args, err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "loaded ") {
			kept = append(kept, line)
		}
	}
	return cmd.ProcessState.ExitCode(), strings.Join(kept, ""), errOut.String()
}

func TestExitStatus(t *testing.T) {
	// A checkpoint stamped with a retired format version, for the -resume row.
	ckDir := t.TempDir()
	if status, _, stderr := run(t, "-g", graphFile, "-alg", "cc", "-checkpoint-dir", ckDir, "-fault-plan", "kill@0"); status != 3 {
		t.Fatalf("writing a checkpoint to restamp: exit %d\n%s", status, stderr)
	}
	oldVersion := filepath.Join(ckDir, "ckpt-000000000.gxckpt")
	data, err := os.ReadFile(oldVersion)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 6)
	if err := os.WriteFile(oldVersion, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A graph with no vertices: an edge list with only a comment.
	emptyFile := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(emptyFile, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		status int
		stderr string // regexp stderr must match
	}{
		{"usage/no graph", []string{"-alg", "cc"}, 2, `-g is required`},
		{"usage/explicit zero retries", []string{"-g", graphFile, "-retries", "0"}, 2, `-retries must be > 0`},
		{"usage/retired -chunking flag", []string{"-g", graphFile, "-chunking", "degree"}, 2, `flag provided but not defined: -chunking`},
		{"fatal/missing graph file", []string{"-g", filepath.Join(ckDir, "absent.gxmt")}, 1, `absent\.gxmt`},
		{"fatal/resume retired format version", []string{"-g", graphFile, "-alg", "cc", "-resume", oldVersion}, 1, `unsupported format version 6`},
		{"fatal/tc on a directed graph", []string{"-g", directedFile, "-alg", "tc"}, 1, `Triangles counts the triangles of an undirected graph`},
		{"fatal/tc-streaming on a directed graph", []string{"-g", directedFile, "-alg", "tc-streaming"}, 1, `StreamingTriangles counts the triangles of an undirected graph`},
		{"ok/cc on an empty graph", []string{"-g", emptyFile, "-alg", "cc"}, 0, `^$`},
		{"usage/bfs from an explicit source on an empty graph", []string{"-g", emptyFile, "-alg", "bfs", "-src", "0"}, 2, `-src 0 out of range \[0,0\)`},
		{"interrupted/kill at boundary 1", []string{"-g", graphFile, "-alg", "cc", "-checkpoint-dir", t.TempDir(), "-fault-plan", "kill@1"}, 3,
			`resume with -resume \S+ckpt-000000001\.gxckpt`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, stderr := run(t, tc.args...)
			if status != tc.status {
				t.Errorf("exit status %d, want %d", status, tc.status)
			}
			if !regexp.MustCompile(tc.stderr).MatchString(stderr) {
				t.Errorf("stderr does not match %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}

// TestEmptyGraph: every algorithm that takes no source runs on a graph with
// no vertices and prints its empty result; the ones that need a source exit
// 2 naming -src, since an empty graph has none to default to.
func TestEmptyGraph(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alg    string
		status int
		out    string // regexp stdout (status 0) or stderr must match
	}{
		{"cc", 0, `(?m)^\[bsp cc\] 0 components in 1 supersteps$`},
		{"tc", 0, `(?m)^\[bsp tc\] triangles=0 candidates=0 total-messages=0 supersteps=1$`},
		{"tc-streaming", 0, `(?m)^\[bsp tc-streaming\] triangles=0 candidates=0 total-messages=0 supersteps=1$`},
		{"pagerank", 0, `(?m)^\[bsp pagerank\] supersteps=1 `},
		{"kcore", 0, `(?m)^\[bsp kcore\] degeneracy=0 supersteps=1$`},
		{"lp", 0, `(?m)^\[bsp lp\] 0 communities in 1 supersteps$`},
		{"bc", 0, `(?m)^\[bsp bc\] sources=0 supersteps=0 `},
		{"mis", 0, `(?m)^\[bsp mis\] 0 members in 1 rounds \(valid=true\)$`},
		{"bfs", 2, `-src 0 out of range \[0,0\)`},
		{"sssp", 2, `-src 0 out of range \[0,0\)`},
		{"diameter", 2, `-src 0 out of range \[0,0\)`},
	}
	for _, tc := range cases {
		t.Run(tc.alg, func(t *testing.T) {
			status, stdout, stderr := run(t, "-g", empty, "-alg", tc.alg)
			if status != tc.status {
				t.Fatalf("exit status %d, want %d\n%s", status, tc.status, stderr)
			}
			text := stderr
			if tc.status == 0 {
				text = stdout
			}
			if !regexp.MustCompile(tc.out).MatchString(text) {
				t.Errorf("output does not match %q:\n%s", tc.out, text)
			}
		})
	}
}

// TestResumeMatchesUninterrupted: a run killed at boundary 1 and resumed
// from the checkpoint it printed exits 0 with the stdout of a run that was
// never interrupted.
func TestResumeMatchesUninterrupted(t *testing.T) {
	status, want, stderr := run(t, "-g", graphFile, "-alg", "cc")
	if status != 0 {
		t.Fatalf("uninterrupted run: exit %d\n%s", status, stderr)
	}
	status, _, stderr = run(t, "-g", graphFile, "-alg", "cc", "-checkpoint-dir", t.TempDir(), "-fault-plan", "kill@1")
	path := regexp.MustCompile(`\S+\.gxckpt`).FindString(stderr)
	if status != 3 || path == "" {
		t.Fatalf("killed run: exit %d, checkpoint %q\n%s", status, path, stderr)
	}
	status, got, stderr := run(t, "-g", graphFile, "-alg", "cc", "-resume", path)
	if status != 0 {
		t.Fatalf("resumed run: exit %d\n%s", status, stderr)
	}
	if got != want {
		t.Fatalf("resumed stdout differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}
