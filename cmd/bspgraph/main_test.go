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

	"graphxmt/internal/bspalg"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
)

// bin is the bspgraph binary TestMain builds; graphFile a small RMAT graph
// on which every checkpointable row runs enough supersteps to be killed at
// boundary 1, and weightedFile the same graph with edge weights.
var bin, graphFile, weightedFile string

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
		graphFile, weightedFile = filepath.Join(dir, "g.gxmt"), filepath.Join(dir, "w.gxmt")
		edges, n, err := gen.RMATEdges(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 5})
		if err == nil {
			err = graphio.WriteBinaryFile(graphFile, graph.MustBuild(n, edges, graph.BuildOptions{}))
		}
		if err == nil {
			w := graph.BuildOptions{Weights: gen.UniformWeights(len(edges), 9, 5)}
			err = graphio.WriteBinaryFile(weightedFile, graph.MustBuild(n, edges, w))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

// run executes bspgraph and returns its exit status, its stdout with the
// duration of the "loaded ... in <duration>" line (the one clock reading)
// masked, and its stderr.
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
	stdout = regexp.MustCompile(`(?m)^(loaded .*) in \S+$`).ReplaceAllString(out.String(), "$1 in <duration>")
	return cmd.ProcessState.ExitCode(), stdout, errOut.String()
}

// csr1File writes a GXMTCSR1 file with the given header flags and CSR
// arrays, whatever they hold, and returns its path.
func csr1File(t *testing.T, flags int64, offsets, adj []int64) string {
	t.Helper()
	b := []byte("GXMTCSR1")
	for _, x := range append([]int64{flags, int64(len(offsets) - 1), int64(len(adj))}, append(offsets, adj...)...) {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	path := filepath.Join(t.TempDir(), "g.gxmt")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
	binary.LittleEndian.PutUint32(data[8:12], 7)
	if err := os.WriteFile(oldVersion, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Checkpoints of BFS from source 5, and of a batch over sources 5 and 9,
	// for the rows that resume them under other sources.
	bfsCkpt := func(args ...string) string {
		dir := t.TempDir()
		if status, _, stderr := run(t, append([]string{"-g", graphFile, "-alg", "bfs", "-checkpoint-dir", dir, "-fault-plan", "kill@1"}, args...)...); status != 3 {
			t.Fatalf("checkpointing bfs %v: exit %d\n%s", args, status, stderr)
		}
		return filepath.Join(dir, "ckpt-000000001.gxckpt")
	}
	source5, batch59 := bfsCkpt("-sources", "5"), bfsCkpt("-sources", "5,9", "-batch")
	// A graph with no vertices: an edge list with only a comment.
	emptyFile := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(emptyFile, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A path longer than the engine's default superstep bound: BFS from an
	// end needs one superstep per hop.
	pathFile := filepath.Join(t.TempDir(), "path.gxmt")
	if err := graphio.WriteBinaryFile(pathFile, gen.Path(2000)); err != nil {
		t.Fatal(err)
	}
	// A path one hop longer than a batch's packed levels reach from an end.
	longPath := filepath.Join(t.TempDir(), "path64k.gxmt")
	if err := graphio.WriteBinaryFile(longPath, gen.Path(1<<16)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		status int
		stderr string // regexp stderr must match
		quiet  bool   // refused before the graph is read: nothing on stdout
	}{
		{"usage/no graph", []string{"-alg", "cc"}, 2, `-g is required`, false},
		{"usage/unknown algorithm", []string{"-g", graphFile, "-alg", "bogus"}, 2, `unknown algorithm "bogus"`, true},
		{"usage/trailing comma", []string{"-g", graphFile, "-alg", "cc,"}, 2, `unknown algorithm "cc,"`, true},
		{"usage/explicit zero retries", []string{"-g", graphFile, "-retries", "0"}, 2, `-retries must be > 0`, false},
		{"usage/retired -chunking flag", []string{"-g", graphFile, "-chunking", "degree"}, 2, `flag provided but not defined: -chunking`, false},
		{"fatal/missing graph file", []string{"-g", filepath.Join(ckDir, "absent.gxmt")}, 1, `absent\.gxmt`, false},
		{"fatal/resume retired format version", []string{"-g", graphFile, "-alg", "cc", "-resume", oldVersion}, 1, `unsupported format version 7`, false},
		{"fatal/resume source 5 as source 7", []string{"-g", graphFile, "-alg", "bfs", "-sources", "7", "-resume", source5}, 1,
			`program mismatch: checkpoint has "bspalg\.BFSProgram\{Source:5\}", run has "bspalg\.BFSProgram\{Source:7\}"`, false},
		{"fatal/resume lanes 5,9 as 9,5", []string{"-g", graphFile, "-alg", "bfs", "-sources", "9,5", "-batch", "-resume", batch59}, 1,
			`program mismatch: checkpoint has "multibfs lanes=5,9", run has "multibfs lanes=9,5"`, false},
		{"fatal/CSR1 file with the directed flag", []string{"-g", csr1File(t, 1, []int64{0, 1, 2}, []int64{1, 0}), "-alg", "tc"}, 1, `directed flag set`, false},
		{"fatal/CSR1 file with a duplicate arc", []string{"-g", csr1File(t, 0, []int64{0, 2, 4}, []int64{1, 1, 0, 0}), "-alg", "tc"}, 1, `duplicate neighbour 1`, false},
		{"fatal/CSR1 file with a self-loop", []string{"-g", csr1File(t, 0, []int64{0, 1, 2}, []int64{0, 1}), "-alg", "tc"}, 1, `adjacency of vertex 0: self-loop`, false},
		{"ok/cc on an empty graph", []string{"-g", emptyFile, "-alg", "cc"}, 0, `^$`, false},
		{"ok/bfs along a 2000-vertex path", []string{"-g", pathFile, "-alg", "bfs", "-src", "0"}, 0, `^$`, false},
		{"fatal/batched bfs deeper than its packed levels", []string{"-g", longPath, "-alg", "bfs", "-sources", "0,65535", "-batch"}, 1,
			`^bspgraph: bspalg: a batched BFS records levels up to 65534, and this batch goes deeper; run its sources unbatched\n$`, false},
		{"ok/the same sources unbatched", []string{"-g", longPath, "-alg", "bfs", "-sources", "0,65535"}, 0, `^$`, false},
		{"usage/bfs from an explicit source on an empty graph", []string{"-g", emptyFile, "-alg", "bfs", "-src", "0"}, 2, `-src 0 out of range \[0,0\)`, false},
		{"interrupted/kill at boundary 1", []string{"-g", graphFile, "-alg", "cc", "-checkpoint-dir", t.TempDir(), "-fault-plan", "kill@1"}, 3,
			`resume with -resume \S+ckpt-000000001\.gxckpt`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := run(t, tc.args...)
			if status != tc.status {
				t.Errorf("exit status %d, want %d", status, tc.status)
			}
			if !regexp.MustCompile(tc.stderr).MatchString(stderr) {
				t.Errorf("stderr does not match %q:\n%s", tc.stderr, stderr)
			}
			if tc.quiet && stdout != "" {
				t.Errorf("printed before refusing:\n%s", stdout)
			}
			if tc.status == 2 && regexp.MustCompile(`(?m)^\[`).MatchString(stdout) {
				t.Errorf("a usage error printed a kernel line:\n%s", stdout)
			}
		})
	}
}

// TestEmptyGraph: every algorithm of the kernel table runs on a graph with
// no vertices and prints its empty result; the ones that need a source exit
// 2, since an empty graph has none to default to. A row without an entry
// here fails by name.
func TestEmptyGraph(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		out    string // regexp stdout (status 0) or stderr must match
	}
	want := map[string]result{
		"cc":           {0, `(?m)^\[bsp cc\] 0 components in 1 supersteps$`},
		"tc":           {0, `(?m)^\[bsp tc\] triangles=0 candidates=0 total-messages=0 supersteps=1$`},
		"tc-streaming": {0, `(?m)^\[bsp tc-streaming\] triangles=0 candidates=0 total-messages=0 supersteps=1$`},
		"pagerank":     {0, `(?m)^\[bsp pagerank\] supersteps=1 `},
		"kcore":        {0, `(?m)^\[bsp kcore\] degeneracy=0 supersteps=1$`},
		"lp":           {0, `(?m)^\[bsp lp\] 0 communities in 1 supersteps$`},
		"bc":           {0, `(?m)^\[bsp bc\] sources=0 supersteps=0 `},
		"mis":          {0, `(?m)^\[bsp mis\] 0 members in 1 rounds \(valid=true\)$`},
		"bfs":          {2, `-src 0 out of range \[0,0\)`},
		"reach":        {2, `reach needs -sources`},
		"sssp":         {2, `-src 0 out of range \[0,0\)`},
		"diameter":     {2, `-src 0 out of range \[0,0\)`},
	}
	for _, alg := range strings.Split(bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil }), ", ") {
		t.Run(alg, func(t *testing.T) {
			tc, ok := want[alg]
			if !ok {
				t.Fatalf("no expected empty-graph result for algorithm %s", alg)
			}
			status, stdout, stderr := run(t, "-g", empty, "-alg", alg)
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

// TestResumeMatchesUninterrupted: for every checkpointable row, a run
// killed at boundary 1 and resumed from the checkpoint it printed exits 0
// with the stdout of a run that was never interrupted. bfs also runs from
// one -sources entry and as a batch.
func TestResumeMatchesUninterrupted(t *testing.T) {
	runs := map[string][]string{
		"bfs -sources 5":          {"-alg", "bfs", "-sources", "5"},
		"bfs -sources 5,9 -batch": {"-alg", "bfs", "-sources", "5,9", "-batch"},
	}
	for _, alg := range strings.Split(bspalg.Names(func(k *bspalg.Kernel) bool { return k.BSP != nil && !k.MultiPass }), ", ") {
		runs[alg] = []string{"-alg", alg}
		if bspalg.Lookup(alg).Reads&(bspalg.Source|bspalg.Sources) == bspalg.Sources {
			runs[alg] = append(runs[alg], "-sources", "5,9")
		}
	}
	for name, args := range runs {
		t.Run(name, func(t *testing.T) {
			g := graphFile
			if bspalg.Lookup(args[1]).Reads&bspalg.Weights != 0 {
				g = weightedFile
			}
			args = append([]string{"-g", g}, args...)
			status, want, stderr := run(t, args...)
			if status != 0 {
				t.Fatalf("uninterrupted run: exit %d\n%s", status, stderr)
			}
			status, _, stderr = run(t, append(args, "-checkpoint-dir", t.TempDir(), "-fault-plan", "kill@1")...)
			path := regexp.MustCompile(`\S+\.gxckpt`).FindString(stderr)
			if status != 3 || path == "" {
				t.Fatalf("killed run: exit %d, checkpoint %q\n%s", status, path, stderr)
			}
			status, got, stderr := run(t, append(args, "-resume", path)...)
			if status != 0 {
				t.Fatalf("resumed run: exit %d\n%s", status, stderr)
			}
			if got != want {
				t.Fatalf("resumed stdout differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
			}
		})
	}
}

// TestResumeAutoReportsSkips: -resume auto skips a checkpoint of a retired
// format version, says so on stderr naming the file — with no obs sink
// attached — and resumes from the newest valid checkpoint: the run's stdout
// is an uninterrupted run's, and it writes the boundaries after the one it
// resumed from and none before.
func TestResumeAutoReportsSkips(t *testing.T) {
	args := []string{"-g", graphFile, "-alg", "pagerank", "-rounds", "30"}
	status, want, stderr := run(t, args...)
	if status != 0 {
		t.Fatalf("uninterrupted run: exit %d\n%s", status, stderr)
	}
	every := t.TempDir()
	if status, _, stderr = run(t, append(args, "-checkpoint-dir", every)...); status != 0 {
		t.Fatalf("checkpointed run: exit %d\n%s", status, stderr)
	}
	valid, err := os.ReadFile(filepath.Join(every, "ckpt-000000024.gxckpt"))
	if err != nil {
		t.Fatal(err)
	}
	retired := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(retired[8:12], 9) // the format version
	dir := t.TempDir()
	skipped := filepath.Join(dir, "ckpt-000000040.gxckpt")
	if err := errors.Join(os.WriteFile(filepath.Join(dir, "ckpt-000000024.gxckpt"), valid, 0o644), os.WriteFile(skipped, retired, 0o644)); err != nil {
		t.Fatal(err)
	}
	status, got, stderr := run(t, append(args, "-checkpoint-dir", dir, "-resume", "auto")...)
	if status != 0 || got != want {
		t.Fatalf("resumed run: exit %d, stdout\n%s\nwant\n%s\nstderr\n%s", status, got, want, stderr)
	}
	if !strings.Contains(stderr, "skipped "+skipped) || !strings.Contains(stderr, "version 9") {
		t.Fatalf("stderr does not name the skipped file and its cause:\n%s", stderr)
	}
	for step, written := range map[int]bool{0: false, 23: false, 25: true} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("ckpt-%09d.gxckpt", step))); (err == nil) != written {
			t.Errorf("checkpoint %d written: %v, want %v", step, err == nil, written)
		}
	}
}
