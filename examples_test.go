package graphxmt_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it: each
// must exit 0. Nothing else runs them, so an API change that leaves one
// compiling but failing would otherwise go unnoticed.
func TestExamplesRun(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			if out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput(); err != nil {
				t.Errorf("%v\n%s", err, out)
			}
		})
	}
}
