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
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
)

// bin is the graphct binary TestMain builds; graphFile a small RMAT graph,
// and csr2File and textFile the same graph as a CSR2 snapshot and as an edge
// list named like DIMACS text.
var bin, graphFile, csr2File, textFile string

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
		// RMAT plus one edge to the last vertex, which an edge list could not
		// otherwise name.
		edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 5})
		var g *graph.Graph
		if err == nil {
			g, err = graph.Build(n, append(edges, graph.Edge{U: 0, V: n - 1}), graph.BuildOptions{SortAdjacency: true})
		}
		graphFile = filepath.Join(dir, "g.gxmt")
		csr2File = filepath.Join(dir, "g.csr2")
		textFile = filepath.Join(dir, "g.txt")
		if err == nil {
			err = graphio.WriteBinaryFile(graphFile, g)
		}
		if err == nil {
			err = graphio.WriteCSR2File(csr2File, g)
		}
		if err == nil {
			var text bytes.Buffer
			if err = graphio.WriteEdgeList(&text, g); err == nil {
				err = os.WriteFile(textFile, text.Bytes(), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

// run runs the binary and returns its stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var ee *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestEmptyGraph: every kernel that takes no source runs on a graph with no
// vertices and prints its empty result; the ones that need a source (or a
// destination) exit 2, since an empty graph has none to default to.
func TestEmptyGraph(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kernel string
		status int
		out    string // regexp the kernel's stdout line (status 0) or stderr must match
	}{
		{"degrees", 0, `^\[degrees\] min=0 max=0 mean=0\.00 median=0 p99=0 isolated=0 `},
		{"cc", 0, `^\[cc\] 0 components, largest 0 vertices`},
		{"sv", 0, `^\[sv\] 0 components, largest 0,`},
		{"tc", 0, `^\[tc\] triangles=0 writes=0 merge-steps=0$`},
		{"ccoef", 0, `^\[ccoef\] triangles=0 global=0\.0000$`},
		{"kcore", 0, `^\[kcore\] degeneracy=0 rounds=0$`},
		{"pagerank", 0, `^\[pagerank\] iterations=0 converged=false top=\[\]$`},
		{"bc", 0, `^\[bc\] sources=0 top=\[\]$`},
		{"lp", 0, `^\[lp\] 0 communities in 1 iterations \(converged=true\)`},
		{"bfs", 2, `-src/-dst out of range \[0,0\)`},
		{"stcon", 2, `-src/-dst out of range \[0,0\)`},
		{"diameter", 2, `-src/-dst out of range \[0,0\)`},
	}
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			stdout, stderr, status := run(t, "-g", empty, "-kernels", tc.kernel)
			if status != tc.status {
				t.Fatalf("exit status %d, want %d\n%s", status, tc.status, stderr)
			}
			text := stderr
			if tc.status == 0 {
				text = ""
				for _, line := range strings.Split(stdout, "\n") {
					if strings.HasPrefix(line, "["+tc.kernel+"] ") {
						text = line
					}
				}
			}
			if !regexp.MustCompile(tc.out).MatchString(text) {
				t.Errorf("output %q does not match %q\n%s", text, tc.out, stdout)
			}
		})
	}
}

// TestLoadsEveryFormat: the format is read from the content, not the name —
// the CSR2 snapshot and an edge list named .txt (the DIMACS extension) load
// and give the CSR1 fixture's components.
func TestLoadsEveryFormat(t *testing.T) {
	ccLine := func(file string) string {
		t.Helper()
		stdout, stderr, status := run(t, "-g", file, "-kernels", "cc")
		if status != 0 {
			t.Fatalf("%s: exit status %d\n%s", filepath.Base(file), status, stderr)
		}
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "[cc] ") {
				return line
			}
		}
		t.Fatalf("%s: no [cc] line in\n%s", filepath.Base(file), stdout)
		return ""
	}
	want := ccLine(graphFile)
	for _, file := range []string{csr2File, textFile} {
		if got := ccLine(file); got != want {
			t.Errorf("%s: %q, the CSR1 file gives %q", filepath.Base(file), got, want)
		}
	}
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
	// A graph with no vertices: an edge list with only a comment.
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		status int
		out    string // regexp the first stdout line (status 0) or stderr must match
	}{
		{"ok/degrees,cc", []string{"-g", graphFile, "-kernels", "degrees,cc"}, 0, `^loaded graph\{undirected, 64 vertices, \d+ edges\}$`},
		{"ok/degrees,cc on an empty graph", []string{"-g", empty, "-kernels", "degrees,cc"}, 0, `^loaded graph\{undirected, 0 vertices, 0 edges\}$`},
		{"usage/bfs from an explicit source on an empty graph", []string{"-g", empty, "-kernels", "bfs", "-src", "0"}, 2, `-src/-dst out of range \[0,0\)`},
		{"usage/no graph", []string{"-kernels", "cc"}, 2, `-g is required`},
		{"usage/bad procs", []string{"-g", graphFile, "-procs", "0"}, 2, `-procs must be > 0, got 0`},
		{"usage/bad samples", []string{"-g", graphFile, "-samples", "-1"}, 2, `-samples must be >= 0`},
		{"usage/unknown kernel", []string{"-g", graphFile, "-kernels", "sssp"}, 2, `unknown kernel "sssp"`},
		{"fatal/missing graph file", []string{"-g", graphFile + ".absent"}, 1, `g\.gxmt\.absent: no such file or directory`},
		{"fatal/corrupt graph file", []string{"-g", truncated}, 1, `corrupt snapshot`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, status := run(t, tc.args...)
			if status != tc.status {
				t.Errorf("exit status %d, want %d\n%s", status, tc.status, stderr)
			}
			text := stderr
			if tc.status == 0 {
				text, _, _ = strings.Cut(stdout, "\n")
			}
			if !regexp.MustCompile(tc.out).MatchString(text) {
				t.Errorf("output %q does not match %q", text, tc.out)
			}
			if strings.Contains(stderr, "panic") {
				t.Errorf("panicked:\n%s", stderr)
			}
		})
	}
}
