package ckpt_test

import (
	"encoding/binary"
	"errors"
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
			Label:         "label" + string(rune('a'+rng.Intn(26))),
			Combiner:      rng.Intn(2) == 0,
			Sparse:        rng.Intn(2) == 0,
			Schedule:      []string{"degree", "fixed"}[rng.Intn(2)],
			MaxSupersteps: int64(rng.Intn(1 << 20)),
			MaxMessages:   int64(rng.Intn(1 << 30)),
			CostsCRC:      rng.Uint32(),
			Direction:     []string{"auto", "push", "pull"}[rng.Intn(3)],
			Retries:       int64(rng.Intn(4)),
			Rep:           []string{"flat", "compressed"}[rng.Intn(2)],
			Lanes:         []string{"", "3,17,42", "0"}[rng.Intn(3)],
		},
		Step:   step,
		States: make([]int64, n),
		Halted: make([]bool, n),
	}
	for i := range s.States {
		s.States[i] = rng.Int63() - rng.Int63()
		s.Halted[i] = rng.Intn(3) == 0
	}
	for _, h := range s.Halted {
		if !h {
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
	if rng.Intn(2) == 0 {
		// Direction-layer state: present together — one push/pull
		// decision per completed superstep plus the per-vertex visited
		// bitmap.
		for i := int64(0); i <= step; i++ {
			s.Directions = append(s.Directions, int64(1+rng.Intn(2)))
		}
		s.Visited = make([]bool, n)
		for i := range s.Visited {
			s.Visited[i] = rng.Intn(2) == 0
		}
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
		s.PrevAggregates = append(s.PrevAggregates, ckpt.Aggregate{
			Name: "agg" + string(rune('a'+i)), Value: rng.Int63n(1 << 40), Seeded: true,
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
	if len(s.Directions) > 0 {
		for int64(len(s.Directions)) < step+1 {
			s.Directions = append(s.Directions, 1)
		}
		s.Directions = s.Directions[:step+1]
	}
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
		path, err := ckpt.WriteFile(dir, want, ckpt.FileName(want.Step), nil)
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
	path, err := ckpt.WriteFile(dir, s, ckpt.FileName(s.Step), nil)
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
	}

	// Appending trailing garbage breaks the checksum; replacing the
	// checksum too must still fail on the trailing bytes.
	data := append(append([]byte(nil), orig...), 0xAB, 0xCD)
	if err := os.WriteFile(truncated, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(truncated); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestInvalidBroadcastRecordsRejected: broadcast-record damage that a
// checksum cannot catch — a well-formed encode of semantically impossible
// records — is rejected by the decoder's structural cross-checks with a
// typed CorruptError.
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
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := *base
			s.BcastSrc = append([]int64(nil), base.BcastSrc...)
			s.BcastVal = append([]int64(nil), base.BcastVal...)
			s.BcastSeq = append([]int64(nil), base.BcastSeq...)
			m.mut(&s)
			dir := t.TempDir()
			path, err := ckpt.WriteFile(dir, &s, ckpt.FileName(s.Step), nil)
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
// for any other. Files stamped with a retired version (1-6 were written by
// earlier engines), a future one, or garbage are a typed VersionError from
// both Load and Verify — never a mis-decode.
func TestUnknownVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s := randSnapshot(rand.New(rand.NewSource(3)))
	path, err := ckpt.WriteFile(dir, s, ckpt.FileName(s.Step), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint32{0, 1, 2, 3, 4, 5, 6, 8, 99} {
		stampVersion(t, path, ver)
		_, loadErr := ckpt.Load(path)
		for _, err := range []error{loadErr, ckpt.Verify(path)} {
			var ve *ckpt.VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("version %d: want VersionError, got %v", ver, err)
			}
			if ve.Version != ver {
				t.Fatalf("VersionError.Version = %d, want %d", ve.Version, ver)
			}
		}
	}
	stampVersion(t, path, 7)
	if _, err := ckpt.Load(path); err != nil {
		t.Fatalf("restamped current version: %v", err)
	}
}

// TestEncodeGolden pins the payload bytes: FNV-64a of Encode over
// randSnapshot seeds 1-8, captured on the commit before the field list
// became Snapshot.walk. The seeds cover every optional section both present
// and absent (broadcast records, direction arrays, retry counts, aux,
// aggregates, phases). A change here is a format change: bump the version.
func TestEncodeGolden(t *testing.T) {
	golden := []struct {
		seed int64
		size int
		hash uint64
	}{
		{1, 2699, 0x10e37c566363fa26}, // dir, retry, aux; no bcast
		{2, 6447, 0x09b46b8aedc09c67}, // bcast, dir, retry; no aux
		{3, 3196, 0x004a6f8d2ac78283}, // bcast, aux; no dir, no retry
		{4, 6730, 0x6c9f1a5a5f4c0f18}, // bcast, dir, aux; no retry
		{5, 2223, 0xd2e773446e7076ba}, // bcast, aux; no aggregates
		{6, 3490, 0x5a8e09da05054505}, // bcast, retry; no phases
		{7, 2390, 0xdbb0098d66a1e0b7}, // dir, retry; no bcast, no aux
		{8, 6116, 0xb7921c25fce365be}, // bcast, dir, aux; no aggregates
	}
	for _, g := range golden {
		b := ckpt.Encode(randSnapshot(rand.New(rand.NewSource(g.seed))))
		h := fnv.New64a()
		h.Write(b)
		if len(b) != g.size || h.Sum64() != g.hash {
			t.Errorf("seed %d: %d bytes, hash %#016x; want %d bytes, hash %#016x", g.seed, len(b), h.Sum64(), g.size, g.hash)
		}
		if cap(b) != len(b) {
			t.Errorf("seed %d: Encode sized its buffer at %d for a %d-byte payload", g.seed, cap(b), len(b))
		}
	}
}

func TestFingerprintCheck(t *testing.T) {
	base := ckpt.Fingerprint{
		GraphCRC: 1, Vertices: 10, Edges: 20, Program: "bfs", Label: "src=0",
		Combiner: true, Sparse: false, MaxSupersteps: 1000, MaxMessages: 1 << 28, CostsCRC: 2,
		Direction: "auto",
	}
	if err := base.Check(base); err != nil {
		t.Fatalf("identical fingerprints rejected: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*ckpt.Fingerprint)
	}{
		{"graph checksum", func(f *ckpt.Fingerprint) { f.GraphCRC++ }},
		{"vertices", func(f *ckpt.Fingerprint) { f.Vertices++ }},
		{"edges", func(f *ckpt.Fingerprint) { f.Edges++ }},
		{"program", func(f *ckpt.Fingerprint) { f.Program = "cc" }},
		{"label", func(f *ckpt.Fingerprint) { f.Label = "src=1" }},
		{"combiner", func(f *ckpt.Fingerprint) { f.Combiner = false }},
		{"sparse activation", func(f *ckpt.Fingerprint) { f.Sparse = true }},
		{"chunk schedule", func(f *ckpt.Fingerprint) { f.Schedule = "degree" }},
		{"direction", func(f *ckpt.Fingerprint) { f.Direction = "pull" }},
		{"max supersteps", func(f *ckpt.Fingerprint) { f.MaxSupersteps = 5 }},
		{"max messages", func(f *ckpt.Fingerprint) { f.MaxMessages = 5 }},
		{"lane assignment", func(f *ckpt.Fingerprint) { f.Lanes = "3,17" }},
		{"cost schedule", func(f *ckpt.Fingerprint) { f.CostsCRC++ }},
	}
	for _, tc := range cases {
		want := base
		tc.mutate(&want)
		err := base.Check(want)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("%s: want MismatchError, got %v", tc.field, err)
		}
		if me.Field != tc.field {
			t.Fatalf("mismatch field = %q, want %q", me.Field, tc.field)
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
	if _, err := ckpt.WriteFile(dir, ok, ckpt.FileName(3), nil); err != nil {
		t.Fatal(err)
	}

	bad := randSnapshot(rng)
	setStep(bad, 4)
	hooks := &ckpt.Hooks{
		WrapWrite: func(step int64, w io.Writer) io.Writer { return failAfter{w: w} },
	}
	_, err := ckpt.WriteFile(dir, bad, ckpt.FileName(4), hooks)
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
		if _, err := ckpt.WriteFile(dir, s, ckpt.FileName(step), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An emergency checkpoint must be invisible to LatestPath and Prune.
	em := randSnapshot(rng)
	setStep(em, 11)
	if _, err := ckpt.WriteFile(dir, em, ckpt.EmergencyFileName(11), nil); err != nil {
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
