package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphxmt/internal/ckpt"
	"graphxmt/internal/trace"
)

// randSnapshot builds a structurally valid random snapshot: the decoder's
// cross-checks (array lengths vs fingerprint, live count vs halted set,
// message destinations in range) must all hold or Load would reject it.
func randSnapshot(rng *rand.Rand) *ckpt.Snapshot {
	return randSnapshotSized(rng, 200, 300)
}

// randSnapshotSized is randSnapshot with the vertex and message counts
// drawn below the given bounds (the fuzzer wants seeds of a few hundred
// bytes, not a few thousand).
func randSnapshotSized(rng *rand.Rand, maxVertices, maxMessages int) *ckpt.Snapshot {
	n := int64(1 + rng.Intn(maxVertices))
	step := int64(rng.Intn(20))
	s := &ckpt.Snapshot{
		FP: ckpt.Fingerprint{
			GraphCRC:      rng.Uint32(),
			Vertices:      n,
			Edges:         int64(rng.Intn(1000)),
			Program:       "prog-" + strings.Repeat("x", rng.Intn(8)),
			Combiner:      rng.Intn(2) == 0,
			Sparse:        rng.Intn(2) == 0,
			Schedule:      []string{"degree", "fixed"}[rng.Intn(2)],
			MaxSupersteps: int64(rng.Intn(1 << 20)),
			MaxMessages:   int64(rng.Intn(1 << 30)),
			CostsCRC:      rng.Uint32(),
			Retries:       int64(rng.Intn(4)),
			Rep:           []string{"flat", "compressed"}[rng.Intn(2)],
		},
		Step:   step,
		States: make([]int64, n),
		Halted: ckpt.Bitmap{N: n, Words: make([]uint64, (n+63)/64)},
	}
	for i := range s.States {
		s.States[i] = rng.Int63() - rng.Int63()
		if rng.Intn(3) == 0 {
			s.Halted.Words[i/64] |= 1 << (i % 64)
		} else {
			s.Live++
		}
	}
	m := rng.Intn(maxMessages)
	if m > 0 { // the decoder yields nil (not empty) slices for zero lengths
		s.MsgDest = make([]int64, m)
		s.MsgVal = make([]int64, m)
		for i := 0; i < m; i++ {
			s.MsgDest[i] = int64(rng.Intn(int(n)))
			s.MsgVal[i] = rng.Int63() - rng.Int63()
		}
	}
	if k := rng.Intn(4); k > 0 {
		// In-flight broadcast records: seqs must be non-decreasing and at
		// most the unicast count.
		seqs := make([]int64, k)
		for i := range seqs {
			seqs[i] = int64(rng.Intn(m + 1))
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i := 0; i < k; i++ {
			s.BcastSrc = append(s.BcastSrc, int64(rng.Intn(int(n))))
			s.BcastVal = append(s.BcastVal, rng.Int63()-rng.Int63())
			s.BcastSeq = append(s.BcastSeq, seqs[i])
		}
	}
	for i := int64(0); i <= step; i++ {
		s.ActivePerStep = append(s.ActivePerStep, int64(rng.Intn(1000)))
		s.MessagesPerStep = append(s.MessagesPerStep, int64(rng.Intn(1000)))
		s.DeliveredPerStep = append(s.DeliveredPerStep, int64(rng.Intn(1000)))
	}
	// The direction sequence, always present: one push/pull decision per
	// completed superstep.
	for i := int64(0); i <= step; i++ {
		s.Directions = append(s.Directions, int64(1+rng.Intn(2)))
	}
	if rng.Intn(2) == 0 {
		// Retry-supervisor state: one retry count per completed
		// superstep.
		for i := int64(0); i <= step; i++ {
			s.RetriesPerStep = append(s.RetriesPerStep, int64(rng.Intn(3)))
		}
	}
	if rng.Intn(2) == 0 {
		// Program-owned aux state: program-defined length, opaque to
		// the decoder.
		s.Aux = make([]int64, 1+rng.Intn(64))
		for i := range s.Aux {
			s.Aux[i] = rng.Int63() - rng.Int63()
		}
	}
	for i, k := 0, rng.Intn(3); i < k; i++ {
		s.Aggregates = append(s.Aggregates, ckpt.Aggregate{
			Name: "agg" + string(rune('a'+i)), Value: rng.Int63n(1 << 40), Seeded: rng.Intn(2) == 0,
		})
	}
	for i, k := 0, rng.Intn(6); i < k; i++ {
		ph := trace.PhaseState{
			Name: "bsp/superstep", Index: i,
			Tasks: rng.Int63n(1 << 30), Issue: rng.Int63n(1 << 30),
			Loads: rng.Int63n(1 << 30), Stores: rng.Int63n(1 << 30),
			MaxTask: rng.Int63n(1 << 20), Barriers: 1,
		}
		for c := range ph.Hot {
			ph.Hot[c] = rng.Int63n(1 << 20)
		}
		s.Phases = append(s.Phases, ph)
	}
	return s
}

// setStep retargets a random snapshot to a specific superstep, resizing
// the per-step counters the decoder cross-checks against Step.
func setStep(s *ckpt.Snapshot, step int64) {
	s.Step = step
	resize := func(a []int64) []int64 {
		for int64(len(a)) < step+1 {
			a = append(a, int64(len(a)))
		}
		return a[:step+1]
	}
	s.ActivePerStep = resize(s.ActivePerStep)
	s.MessagesPerStep = resize(s.MessagesPerStep)
	s.DeliveredPerStep = resize(s.DeliveredPerStep)
	for int64(len(s.Directions)) < step+1 {
		s.Directions = append(s.Directions, 1)
	}
	s.Directions = s.Directions[:step+1]
	if len(s.RetriesPerStep) > 0 {
		s.RetriesPerStep = resize(s.RetriesPerStep)
	}
}

// TestRoundTripProperty: Write/Load is the identity over random valid
// snapshots.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		want := randSnapshot(rng)
		path, err := new(ckpt.Writer).WriteFile(dir, want, ckpt.FileName(want.Step), nil)
		if err != nil {
			t.Fatalf("iter %d: write: %v", i, err)
		}
		got, err := ckpt.Load(path)
		if err != nil {
			t.Fatalf("iter %d: load: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: round trip mismatch:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestCorruptionRejected: a bit flip anywhere in the file, or truncation
// at any sampled length, is rejected with a typed error.
func TestCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	s := randSnapshot(rng)
	path, err := new(ckpt.Writer).WriteFile(dir, s, ckpt.FileName(s.Step), nil)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := filepath.Join(dir, "flipped.gxckpt")
	stride := len(orig)/97 + 1
	for off := 0; off < len(orig); off += stride {
		data := append([]byte(nil), orig...)
		data[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(flipped, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ckpt.Load(flipped)
		if err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
		sameVerify(t, flipped, err)
		var ce *ckpt.CorruptError
		var ve *ckpt.VersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("bit flip at offset %d: error not typed: %v", off, err)
		}
	}

	truncated := filepath.Join(dir, "truncated.gxckpt")
	for _, keep := range []int{0, 1, 7, 8, 15, 16, 17, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(truncated, orig[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ckpt.Load(truncated)
		var ce *ckpt.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: want CorruptError, got %v", keep, err)
		}
		sameVerify(t, truncated, err)
	}

	// Appending trailing garbage breaks the checksum; replacing the
	// checksum too must still fail on the trailing bytes.
	data := append(append([]byte(nil), orig...), 0xAB, 0xCD)
	if err := os.WriteFile(truncated, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ckpt.Load(truncated)
	if err == nil {
		t.Fatal("trailing garbage accepted")
	}
	sameVerify(t, truncated, err)
}

// sameVerify: every damage above is to the envelope or breaks the payload
// CRC, so Verify, which streams the file, reports exactly what Load, which
// reads it whole, reported.
func sameVerify(t *testing.T, path string, loadErr error) {
	t.Helper()
	if err := ckpt.Verify(path); err == nil || err.Error() != loadErr.Error() {
		t.Fatalf("Verify(%s) = %v; Load said %v", filepath.Base(path), err, loadErr)
	}
}

// TestDecodeBulkFieldErrors: each whole-array field decodes in one bounded
// loop, and its damage reads as it did when the decoder took one element
// per call. A payload cut inside a field's elements fails the field's
// length check at the length's own offset; a byte other than 0 or 1 in a
// bitmap's last element is an invalid boolean at that byte's offset.
func TestDecodeBulkFieldErrors(t *testing.T) {
	s := randSnapshot(rand.New(rand.NewSource(2))) // every section present
	b := ckpt.Encode(nil, s)
	fields := ckpt.BulkFields(s)
	if len(fields) != 13 {
		t.Fatalf("%d bulk fields, want 13 (12 int64s, 1 bitmap)", len(fields))
	}
	for _, f := range fields {
		if f.N == 0 {
			continue
		}
		cut := f.Off + f.Elem*(f.N/2) + f.Elem/2
		_, err := ckpt.Decode(b[:cut], "p")
		want := fmt.Sprintf("ckpt: corrupt checkpoint p: impossible slice length %d at offset %d", f.N, f.Off-8)
		if err == nil || err.Error() != want {
			t.Errorf("cut at %d, inside the field at %d: %v; want %s", cut, f.Off, err, want)
		}
		if f.Elem != 1 {
			continue
		}
		bad := bytes.Clone(b)
		bad[f.Off+f.N-1] = 2
		_, err = ckpt.Decode(bad, "p")
		want = fmt.Sprintf("ckpt: corrupt checkpoint p: invalid boolean at offset %d", f.Off+f.N-1)
		if err == nil || err.Error() != want {
			t.Errorf("2 in the last byte of the bitmap at %d: %v; want %s", f.Off, err, want)
		}
	}
}

// TestInvalidBroadcastRecordsRejected: broadcast-record damage that a
// checksum cannot catch — a well-formed encode of semantically impossible
// records — is rejected by the decoder's structural cross-checks with a
// typed CorruptError, as is a payload without the direction sequence every
// snapshot carries.
func TestInvalidBroadcastRecordsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := randSnapshot(rng)
	for len(base.BcastSrc) < 2 || len(base.MsgDest) == 0 {
		base = randSnapshot(rng)
	}
	mutations := []struct {
		name string
		mut  func(s *ckpt.Snapshot)
	}{
		{"length mismatch", func(s *ckpt.Snapshot) {
			s.BcastVal = s.BcastVal[:len(s.BcastVal)-1]
		}},
		{"out-of-range source", func(s *ckpt.Snapshot) {
			s.BcastSrc[0] = s.FP.Vertices
		}},
		{"decreasing seq", func(s *ckpt.Snapshot) {
			s.BcastSeq[0] = s.BcastSeq[len(s.BcastSeq)-1] + 1
		}},
		{"seq beyond unicast count", func(s *ckpt.Snapshot) {
			s.BcastSeq[len(s.BcastSeq)-1] = int64(len(s.MsgDest)) + 1
		}},
		{"no direction sequence", func(s *ckpt.Snapshot) {
			s.Directions = nil
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := *base
			s.BcastSrc = append([]int64(nil), base.BcastSrc...)
			s.BcastVal = append([]int64(nil), base.BcastVal...)
			s.BcastSeq = append([]int64(nil), base.BcastSeq...)
			m.mut(&s)
			dir := t.TempDir()
			path, err := new(ckpt.Writer).WriteFile(dir, &s, ckpt.FileName(s.Step), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ckpt.Load(path)
			var ce *ckpt.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want CorruptError, got %v", err)
			}
		})
	}
}

// stampVersion rewrites the format-version word of the checkpoint at path.
// The CRC covers only the payload, so the file stays otherwise intact.
func stampVersion(t *testing.T, path string, ver uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], ver)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownVersionRejected: the format has one version and no decoder
// for any other. Files stamped with a retired version (every one below the
// current was written by an earlier engine), a future one, or garbage are a
// typed VersionError from both Load and Verify — never a mis-decode. Each
// version is a subtest (v0 … v99), so a failure names the version.
func TestUnknownVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s := randSnapshot(rand.New(rand.NewSource(3)))
	path, err := new(ckpt.Writer).WriteFile(dir, s, ckpt.FileName(s.Step), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rejected []uint32
	for ver := range uint32(ckpt.Version) {
		rejected = append(rejected, ver)
	}
	for _, ver := range append(rejected, ckpt.Version+1, 99) {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			stampVersion(t, path, ver)
			_, loadErr := ckpt.Load(path)
			for _, err := range []error{loadErr, ckpt.Verify(path)} {
				var ve *ckpt.VersionError
				if !errors.As(err, &ve) {
					t.Fatalf("want VersionError, got %v", err)
				}
				if ve.Version != ver {
					t.Fatalf("VersionError.Version = %d, want %d", ve.Version, ver)
				}
			}
		})
	}
	stampVersion(t, path, ckpt.Version)
	if _, err := ckpt.Load(path); err != nil {
		t.Fatalf("restamped current version: %v", err)
	}
}

// TestEncodeGolden pins the payload bytes: FNV-64a of Encode over
// randSnapshot seeds 1-7 and 17, captured at format version 10. The seeds
// cover every optional section both present and absent (broadcast records,
// retry counts, aux, aggregates, phases); the direction sequence is in every
// payload. A change here is a format change: bump the version.
//
// One buffer serves every seed, as a run's Writer serves every boundary: a
// payload that fits is encoded where the buffer is, and one that does not
// moves it once, to its own size and a quarter.
func TestEncodeGolden(t *testing.T) {
	golden := []struct {
		seed int64
		size int
		hash uint64
	}{
		{1, 1543, 0x11ed4e4b56191af7},  // aggregates, phases; no bcast, retry, aux
		{2, 5122, 0x12a6c0f8d7917495},  // every section
		{3, 4960, 0x98b67aa156ea448a},  // retry, phases; no bcast, aux, aggregates
		{4, 3119, 0x8fc9596c2e24b0f9},  // bcast, aux, aggregates, phases; no retry
		{5, 3314, 0xa94311ae137973e2},  // bcast, phases; no retry, aux, aggregates
		{6, 6126, 0xd7d605dfe91fee78},  // aux, aggregates, phases; no bcast, retry
		{7, 4920, 0x7d13efe318ddf48b},  // bcast, retry, aux, phases; no aggregates
		{17, 4800, 0x1bba65fdc87be834}, // retry, aggregates; no bcast, aux, phases
	}
	var buf []byte
	moves := 0
	for _, g := range golden {
		b := ckpt.Encode(buf, randSnapshot(rand.New(rand.NewSource(g.seed))))
		h := fnv.New64a()
		h.Write(b)
		if len(b) != g.size || h.Sum64() != g.hash {
			t.Errorf("seed %d: %d bytes, hash %#016x; want %d bytes, hash %#016x", g.seed, len(b), h.Sum64(), g.size, g.hash)
		}
		if cap(buf) >= len(b) {
			if &b[:1][0] != &buf[:1][0] {
				t.Errorf("seed %d: a %d-byte payload moved a buffer of capacity %d", g.seed, len(b), cap(buf))
			}
		} else if moves++; cap(b) != len(b)+len(b)/4 {
			t.Errorf("seed %d: Encode grew its buffer to %d for a %d-byte payload, want %d", g.seed, cap(b), len(b), len(b)+len(b)/4)
		}
		buf = b
	}
	if moves != 2 {
		t.Errorf("the buffer moved %d times over the seeds, want 2 (for seeds 1 and 2)", moves)
	}
}

// TestFingerprintCheck: Check covers every field of the fingerprint. A
// copy of base with any one field perturbed fails Check with a
// MismatchError that names that field, and no two fields share a name; the
// perturbed fingerprint survives an Encode/Decode round trip. A field added
// to Fingerprint without a Check row or a walk line fails here.
func TestFingerprintCheck(t *testing.T) {
	base := ckpt.Fingerprint{
		GraphCRC: 1, Vertices: 10, Edges: 20, Program: "bspalg.BFSProgram{Source:0}",
		Combiner: true, Schedule: "degree64", MaxSupersteps: 1000, MaxMessages: 1 << 28, CostsCRC: 2,
		Retries: 2, Rep: "flat",
	}
	if err := base.Check(base); err != nil {
		t.Fatalf("identical fingerprints rejected: %v", err)
	}
	fieldOf := map[string]string{} // MismatchError.Field -> struct field
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fp := base
		switch f := reflect.ValueOf(&fp).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint32:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s is a %s, which this test cannot perturb", name, f.Kind())
		}
		var me *ckpt.MismatchError
		if err := fp.Check(base); !errors.As(err, &me) {
			t.Errorf("perturbed %s: want MismatchError, got %v", name, err)
			continue
		}
		if other, dup := fieldOf[me.Field]; dup {
			t.Errorf("fields %s and %s both mismatch as %q", other, name, me.Field)
		}
		fieldOf[me.Field] = name

		s := &ckpt.Snapshot{
			FP:               fp,
			Live:             fp.Vertices,
			States:           make([]int64, fp.Vertices),
			Halted:           ckpt.Bitmap{N: fp.Vertices, Words: make([]uint64, (fp.Vertices+63)/64)},
			ActivePerStep:    []int64{1},
			MessagesPerStep:  []int64{2},
			DeliveredPerStep: []int64{3},
			Directions:       []int64{1},
		}
		got, err := ckpt.Decode(ckpt.Encode(nil, s), name)
		if err != nil {
			t.Errorf("perturbed %s: decode: %v", name, err)
		} else if got.FP != fp {
			t.Errorf("perturbed %s: round trip gave %+v, want %+v", name, got.FP, fp)
		}
	}
}

// TestWriteAtomicity: a mid-stream write failure must leave no final file
// behind, no temp litter, and previously written checkpoints intact.
func TestWriteAtomicity(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	ok := randSnapshot(rng)
	setStep(ok, 3)
	if _, err := new(ckpt.Writer).WriteFile(dir, ok, ckpt.FileName(3), nil); err != nil {
		t.Fatal(err)
	}

	bad := randSnapshot(rng)
	setStep(bad, 4)
	hooks := &ckpt.Hooks{
		WrapWrite: func(step int64, w io.Writer) io.Writer { return failAfter{w: w} },
	}
	_, err := new(ckpt.Writer).WriteFile(dir, bad, ckpt.FileName(4), hooks)
	var we *ckpt.WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want WriteError, got %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != ckpt.FileName(3) {
			t.Fatalf("unexpected file after failed write: %s", e.Name())
		}
	}
	if _, err := ckpt.Load(filepath.Join(dir, ckpt.FileName(3))); err != nil {
		t.Fatalf("previous checkpoint damaged by failed write: %v", err)
	}
}

type failAfter struct{ w io.Writer }

func (f failAfter) Write(b []byte) (int, error) {
	if len(b) > 4 {
		f.w.Write(b[:4])
		return 4, errors.New("boom")
	}
	return f.w.Write(b)
}

func TestLatestPathAndPrune(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	for _, step := range []int64{0, 2, 5, 9} {
		s := randSnapshot(rng)
		setStep(s, step)
		if _, err := new(ckpt.Writer).WriteFile(dir, s, ckpt.FileName(step), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An emergency checkpoint must be invisible to LatestPath and Prune.
	em := randSnapshot(rng)
	setStep(em, 11)
	if _, err := new(ckpt.Writer).WriteFile(dir, em, ckpt.EmergencyFileName(11), nil); err != nil {
		t.Fatal(err)
	}

	latest, err := ckpt.LatestPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != ckpt.FileName(9) {
		t.Fatalf("latest = %s, want %s", latest, ckpt.FileName(9))
	}

	if err := ckpt.Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	var names []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{ckpt.FileName(5), ckpt.FileName(9), ckpt.EmergencyFileName(11)}
	if len(names) != len(want) {
		t.Fatalf("after prune: %v, want %v", names, want)
	}
	for _, w := range want {
		if _, err := os.Stat(filepath.Join(dir, w)); err != nil {
			t.Fatalf("after prune, %s missing", w)
		}
	}

	if latest, _ = ckpt.LatestPath(t.TempDir()); latest != "" {
		t.Fatalf("latest in empty dir = %q, want empty", latest)
	}
}
