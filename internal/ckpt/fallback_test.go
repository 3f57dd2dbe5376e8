package ckpt_test

// The resume fallback chain: ResumeLatestValid walks periodic checkpoints
// newest-first, skipping structurally damaged snapshots (torn writes, bit
// flips, truncation, unknown versions) and reporting each skip, and Prune
// never ages out the newest valid snapshot — the one the chain would
// actually resume from.

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/faultinject"
)

// writeChain writes one run's snapshots (same fingerprint, steps 0..n-1)
// into dir and returns the fingerprint.
func writeChain(t *testing.T, dir string, n int64) ckpt.Fingerprint {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	base := randSnapshot(rng)
	for step := int64(0); step < n; step++ {
		setStep(base, step)
		if _, err := new(ckpt.Writer).WriteFile(dir, base, ckpt.FileName(step), nil); err != nil {
			t.Fatal(err)
		}
	}
	return base.FP
}

func TestResumeLatestValidFallsBack(t *testing.T) {
	dir := t.TempDir()
	fp := writeChain(t, dir, 6)

	// Damage the newest three snapshots: ckpt-5 is stamped with a retired
	// format version, ckpt-4 has a mid-file bit flip, ckpt-3 a torn tail.
	// The chain must skip all three — none is fatal — and land on ckpt-2.
	stampVersion(t, filepath.Join(dir, ckpt.FileName(5)), 6)
	newest := filepath.Join(dir, ckpt.FileName(4))
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(newest, fi.Size()/2, 5); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.TruncateTail(filepath.Join(dir, ckpt.FileName(3)), 40); err != nil {
		t.Fatal(err)
	}

	var skips []string
	s, path, err := ckpt.ResumeLatestValid(dir, fp, func(p string, cause error) {
		if cause == nil {
			t.Fatalf("skip of %s carried no cause", p)
		}
		skips = append(skips, filepath.Base(p))
	})
	if err != nil {
		t.Fatalf("ResumeLatestValid: %v", err)
	}
	if s.Step != 2 || path != filepath.Join(dir, ckpt.FileName(2)) {
		t.Fatalf("resumed step %d from %s, want step 2 from %s", s.Step, path, ckpt.FileName(2))
	}
	want := []string{ckpt.FileName(5), ckpt.FileName(4), ckpt.FileName(3)}
	if !slices.Equal(skips, want) {
		t.Fatalf("skips = %v, want %v (newest first)", skips, want)
	}
}

// TestStrayTempFileIgnored: a kill -9 between WriteFile's CreateTemp and
// Rename leaves ckpt-N.gxckpt.tmpXXXX behind. It is not a checkpoint: the
// resume chain and LatestPath must not see it (no skip is reported — there
// is nothing damaged to report), and Prune must neither count it against
// the retention window nor remove it.
func TestStrayTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	fp := writeChain(t, dir, 1)
	stray := filepath.Join(dir, ckpt.FileName(1)+".tmp123456")
	if err := os.WriteFile(stray, []byte("half a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, ckpt.FileName(0))

	s, path, err := ckpt.ResumeLatestValid(dir, fp, func(p string, cause error) {
		t.Errorf("skip reported for %s: %v", p, cause)
	})
	if err != nil {
		t.Fatalf("ResumeLatestValid: %v", err)
	}
	if s.Step != 0 || path != first {
		t.Fatalf("resumed step %d from %s, want step 0 from %s", s.Step, path, first)
	}
	if latest, err := ckpt.LatestPath(dir); err != nil || latest != first {
		t.Fatalf("LatestPath = %q, %v; want %q", latest, err, first)
	}

	// Valid steps 0-2 beside the stray temp for step 1: keeping one leaves
	// step 2 and the temp file.
	writeChain(t, dir, 3)
	if err := ckpt.Prune(dir, 1); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{ckpt.FileName(1) + ".tmp123456", ckpt.FileName(2)}; !slices.Equal(names, want) {
		t.Fatalf("dir after prune = %v, want %v", names, want)
	}
}

func TestResumeLatestValidEmptyAndExhausted(t *testing.T) {
	// Empty directory: NoValidCheckpointError with zero skips — the signal
	// callers use to fall through to a fresh start.
	dir := t.TempDir()
	_, _, err := ckpt.ResumeLatestValid(dir, ckpt.Fingerprint{}, nil)
	var nv *ckpt.NoValidCheckpointError
	if !errors.As(err, &nv) || nv.Skipped != 0 {
		t.Fatalf("empty dir: got %v, want NoValidCheckpointError with 0 skipped", err)
	}

	// Every snapshot damaged: the error counts them all.
	fp := writeChain(t, dir, 3)
	for step := int64(0); step < 3; step++ {
		if err := faultinject.TruncateTail(filepath.Join(dir, ckpt.FileName(step)), 25); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = ckpt.ResumeLatestValid(dir, fp, nil)
	if !errors.As(err, &nv) || nv.Skipped != 3 {
		t.Fatalf("all damaged: got %v, want NoValidCheckpointError with 3 skipped", err)
	}
}

// TestResumeLatestValidRejectsMismatch: an intact snapshot from a different
// run is a hard MismatchError, never silently skipped — falling past it
// would resume wildly stale state.
func TestResumeLatestValidRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	fp := writeChain(t, dir, 2)
	other := fp
	other.Program = fp.Program + "-other"
	_, _, err := ckpt.ResumeLatestValid(dir, other, func(string, error) {
		t.Fatal("fingerprint mismatch must not be reported as a skip")
	})
	var me *ckpt.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("got %v, want MismatchError", err)
	}
}

// TestPrunePreservesNewestValid: when the retention window holds only
// damaged snapshots, Prune keeps the newest valid one alive even though it
// falls outside the window.
func TestPrunePreservesNewestValid(t *testing.T) {
	dir := t.TempDir()
	writeChain(t, dir, 5)
	for _, step := range []int64{3, 4} {
		if err := faultinject.TruncateTail(filepath.Join(dir, ckpt.FileName(step)), 30); err != nil {
			t.Fatal(err)
		}
	}
	if err := ckpt.Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name()] = true
	}
	// Window = {4, 3} (both damaged), plus the preserved newest valid 2.
	for _, step := range []int64{2, 3, 4} {
		if !got[ckpt.FileName(step)] {
			t.Fatalf("Prune removed %s; dir = %v", ckpt.FileName(step), got)
		}
	}
	for _, step := range []int64{0, 1} {
		if got[ckpt.FileName(step)] {
			t.Fatalf("Prune kept %s outside the window; dir = %v", ckpt.FileName(step), got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("dir after prune = %v, want exactly ckpt-2..4", got)
	}
}
