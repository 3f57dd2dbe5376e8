package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"

	"graphxmt/internal/trace"
)

// File format: an 8-byte magic, a little-endian uint32 format version, a
// little-endian uint32 CRC32 (Castagnoli) over the payload, then the
// payload. The payload is a flat little-endian encoding of Snapshot with
// length-prefixed slices and strings, in the order Snapshot.walk visits
// them; every length is validated against the remaining bytes during
// decode, so a truncated or bit-flipped file yields a typed CorruptError,
// never a panic or a silently wrong state.
//
// There is one format version and no decoder for any other: a file stamped
// with a different version is a typed VersionError, which the resume
// fallback chain skips like any other unreadable snapshot. To add a field,
// add its line to walk, add its structural cross-check to Decode, and bump
// version and minVersion together.
const (
	magic      = "GXMTCKP1"
	version    = 7
	minVersion = version
	headerLen  = 16

	// ext is the checkpoint file extension.
	ext = ".gxckpt"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a checkpoint file that failed structural validation
// (bad magic, checksum mismatch, truncation, or an impossible length).
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// VersionError reports a checkpoint written by an unknown format version.
type VersionError struct {
	Path    string
	Version uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint %s has unsupported format version %d (supported: %d)", e.Path, e.Version, version)
}

// MismatchError reports a fingerprint field that differs between a
// checkpoint and the run trying to resume from it.
type MismatchError struct {
	Field string
	Got   string // value stored in the checkpoint
	Want  string // value of the resuming run
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint %s mismatch: checkpoint has %q, run has %q", e.Field, e.Got, e.Want)
}

// WriteError reports a failed checkpoint write. The temp file is removed
// and any previous checkpoint is left intact.
type WriteError struct {
	Path string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("ckpt: writing checkpoint %s: %v", e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// codec gives Snapshot.walk's visit of the payload fields one of its three
// meanings: sizer counts the bytes, encoder writes them, decoder reads and
// bounds-checks them. Only the decoder stores through the pointers.
type codec interface {
	u8(*uint8)
	u32(*uint32)
	i64(*int64)
	index(*int) // an int stored as an i64
	boolean(*bool)
	str(*string)
	int64s(*[]int64)
	bitmap(*Bitmap)
	// length visits the element count of a list of records that each occupy
	// at least minBytes and returns how many the walk should visit: have
	// when writing, the stored count — checked against the bytes left —
	// when reading.
	length(have, minBytes int) int
	// fail rejects the payload; only reading can.
	fail(format string, args ...any)
}

// walk visits the fingerprint and every snapshot field exactly once, in
// file order. It is the definition of the payload layout.
func (s *Snapshot) walk(c codec) {
	fp := &s.FP
	c.u32(&fp.GraphCRC)
	c.i64(&fp.Vertices)
	c.i64(&fp.Edges)
	c.str(&fp.Program)
	c.str(&fp.Label)
	c.boolean(&fp.Combiner)
	c.boolean(&fp.Sparse)
	c.str(&fp.Schedule)
	c.str(&fp.Direction)
	c.i64(&fp.Retries)
	c.str(&fp.Rep)
	c.str(&fp.Lanes)
	c.i64(&fp.MaxSupersteps)
	c.i64(&fp.MaxMessages)
	c.u32(&fp.CostsCRC)

	c.i64(&s.Step)
	c.i64(&s.Live)
	c.int64s(&s.States)
	c.bitmap(&s.Halted)
	c.int64s(&s.MsgDest)
	c.int64s(&s.MsgVal)
	c.int64s(&s.BcastSrc)
	c.int64s(&s.BcastVal)
	c.int64s(&s.BcastSeq)
	c.int64s(&s.ActivePerStep)
	c.int64s(&s.MessagesPerStep)
	c.int64s(&s.DeliveredPerStep)
	c.int64s(&s.Directions)
	c.bitmap(&s.Visited)
	c.int64s(&s.RetriesPerStep)
	// Program-defined length — no structural cross-check is possible beyond
	// the slice-length sanity the decoder already applies; a mismatched
	// length is caught by the engine at restore time.
	c.int64s(&s.Aux)

	for _, aggs := range []*[]Aggregate{&s.Aggregates, &s.PrevAggregates} {
		if n := c.length(len(*aggs), aggregateMinBytes); n != len(*aggs) {
			*aggs = make([]Aggregate, n)
		}
		for i := range *aggs {
			a := &(*aggs)[i]
			c.str(&a.Name)
			c.i64(&a.Value)
			c.boolean(&a.Seeded)
		}
	}

	if n := c.length(len(s.Phases), phaseMinBytes); n != len(s.Phases) {
		s.Phases = make([]trace.PhaseState, n)
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		c.str(&p.Name)
		c.index(&p.Index)
		c.i64(&p.Tasks)
		c.i64(&p.Issue)
		c.i64(&p.Loads)
		c.i64(&p.Stores)
		c.i64(&p.MaxTask)
		nh := uint8(trace.NumHotClasses)
		if c.u8(&nh); nh != uint8(trace.NumHotClasses) {
			c.fail("phase %d has %d hot classes, want %d", i, nh, trace.NumHotClasses)
		}
		for h := range p.Hot {
			c.i64(&p.Hot[h])
		}
		c.i64(&p.Barriers)
	}
}

// The fewest bytes one Aggregate and one PhaseState can encode to (empty
// name). The decoder holds a stored record count to what the remaining
// bytes could back, so a damaged count cannot make it allocate more than
// a small multiple of the file's size.
const (
	aggregateMinBytes = 4 + 8 + 1
	phaseMinBytes     = 4 + 8*6 + 1 + 8*int(trace.NumHotClasses) + 8
)

// sizer counts the bytes a walk encodes to, so encode allocates once.
type sizer int

func (z *sizer) u8(*uint8)              { *z++ }
func (z *sizer) u32(*uint32)            { *z += 4 }
func (z *sizer) i64(*int64)             { *z += 8 }
func (z *sizer) index(*int)             { *z += 8 }
func (z *sizer) boolean(*bool)          { *z++ }
func (z *sizer) str(s *string)          { *z += sizer(4 + len(*s)) }
func (z *sizer) int64s(s *[]int64)      { *z += sizer(8 + 8*len(*s)) }
func (z *sizer) bitmap(b *Bitmap)       { *z += sizer(8 + b.N) }
func (z *sizer) length(have, _ int) int { *z += 8; return have }
func (z *sizer) fail(string, ...any)    {}

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v *uint8)   { e.buf = append(e.buf, *v) }
func (e *encoder) u32(v *uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, *v) }
func (e *encoder) i64(v *int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(*v)) }
func (e *encoder) index(v *int)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(*v)) }
func (e *encoder) boolean(v *bool) {
	if *v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s *string) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(*s)))
	e.buf = append(e.buf, *s...)
}

func (e *encoder) int64s(s *[]int64) {
	e.length(len(*s), 8)
	for i := range *s {
		e.i64(&(*s)[i])
	}
}

// bitmap writes one byte per vertex, as the []bool it replaced did.
func (e *encoder) bitmap(b *Bitmap) {
	e.length(int(b.N), 1)
	for v := int64(0); v < b.N; v++ {
		e.buf = append(e.buf, byte(b.Words[v>>6]>>(v&63)&1))
	}
}

func (e *encoder) length(have, _ int) int {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(have))
	return have
}

func (e *encoder) fail(string, ...any) {}

type decoder struct {
	data []byte
	pos  int
	path string
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptError{Path: d.path, Reason: fmt.Sprintf(format, args...)}
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.data)-d.pos < n {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.pos, n, len(d.data)-d.pos)
		return false
	}
	return true
}

func (d *decoder) u8(v *uint8) {
	if d.need(1) {
		*v = d.data[d.pos]
		d.pos++
	}
}

func (d *decoder) u32(v *uint32) {
	if d.need(4) {
		*v = binary.LittleEndian.Uint32(d.data[d.pos:])
		d.pos += 4
	}
}

func (d *decoder) i64(v *int64) {
	if d.need(8) {
		*v = int64(binary.LittleEndian.Uint64(d.data[d.pos:]))
		d.pos += 8
	}
}

func (d *decoder) index(v *int) {
	var x int64
	d.i64(&x)
	*v = int(x)
}

func (d *decoder) boolean(v *bool) {
	var b uint8
	d.u8(&b)
	if b > 1 {
		d.fail("invalid boolean at offset %d", d.pos-1)
	}
	*v = b == 1
}

func (d *decoder) str(s *string) {
	var n uint32
	d.u32(&n)
	if d.need(int(n)) {
		*s = string(d.data[d.pos : d.pos+int(n)])
		d.pos += int(n)
	}
}

// length reads a list length and validates it against the bytes that a
// list of minBytes-byte elements would occupy.
func (d *decoder) length(_, minBytes int) int {
	var n int64
	d.i64(&n)
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(d.data)-d.pos)/int64(minBytes) {
		d.fail("impossible slice length %d at offset %d", n, d.pos-8)
		return 0
	}
	return int(n)
}

func (d *decoder) int64s(s *[]int64) {
	if n := d.length(0, 8); n > 0 {
		*s = make([]int64, n)
		for i := range *s {
			d.i64(&(*s)[i])
		}
	}
}

func (d *decoder) bitmap(b *Bitmap) {
	if n := d.length(0, 1); n > 0 {
		*b = Bitmap{N: int64(n), Words: make([]uint64, (n+63)/64)}
		for v := 0; v < n; v++ {
			var set bool
			if d.boolean(&set); set {
				b.Words[v>>6] |= 1 << (v & 63)
			}
		}
	}
}

// encode serializes the snapshot payload (without magic/version/checksum —
// WriteFile adds the envelope). The buffer is sized by a first walk, so a
// boundary that carries its traffic as broadcast records, or a long
// per-step history, costs one allocation like any other.
func encode(s *Snapshot) []byte {
	var size sizer
	s.walk(&size)
	e := &encoder{buf: make([]byte, 0, size)}
	s.walk(e)
	return e.buf
}

// Decode parses a snapshot payload. path is used only in error messages.
func Decode(payload []byte, path string) (*Snapshot, error) {
	d := &decoder{data: payload, path: path}
	s := &Snapshot{}
	s.walk(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("%d trailing bytes after payload", len(d.data)-d.pos)}
	}
	// Structural cross-checks: catch damage that survives within a field.
	if int64(len(s.States)) != s.FP.Vertices || s.Halted.N != s.FP.Vertices {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("state arrays sized %d/%d, fingerprint says %d vertices", len(s.States), s.Halted.N, s.FP.Vertices)}
	}
	if len(s.MsgDest) != len(s.MsgVal) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("message queue slices differ in length (%d dests, %d values)", len(s.MsgDest), len(s.MsgVal))}
	}
	for i, v := range s.MsgDest {
		if v < 0 || v >= s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("message %d addressed to out-of-range vertex %d", i, v)}
		}
	}
	if len(s.BcastSrc) != len(s.BcastVal) || len(s.BcastSrc) != len(s.BcastSeq) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record slices differ in length (%d sources, %d values, %d seqs)", len(s.BcastSrc), len(s.BcastVal), len(s.BcastSeq))}
	}
	var prevSeq int64
	for i, v := range s.BcastSrc {
		if v < 0 || v >= s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record %d from out-of-range vertex %d", i, v)}
		}
		if q := s.BcastSeq[i]; q < prevSeq || q > int64(len(s.MsgDest)) {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record %d has invalid seq %d (previous %d, %d unicasts)", i, q, prevSeq, len(s.MsgDest))}
		} else {
			prevSeq = q
		}
	}
	want := s.Step + 1
	if int64(len(s.ActivePerStep)) != want || int64(len(s.MessagesPerStep)) != want || int64(len(s.DeliveredPerStep)) != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("per-step counters sized %d/%d/%d, want %d (step %d)", len(s.ActivePerStep), len(s.MessagesPerStep), len(s.DeliveredPerStep), want, s.Step)}
	}
	// Retry counts are empty (supervisor inactive) or cover every
	// completed superstep with non-negative values.
	if len(s.RetriesPerStep) > 0 {
		if int64(len(s.RetriesPerStep)) != want {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("retry counters sized %d, want %d (step %d)", len(s.RetriesPerStep), want, s.Step)}
		}
		for i, v := range s.RetriesPerStep {
			if v < 0 {
				return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("retry counter %d is negative (%d)", i, v)}
			}
		}
	}
	// Direction-layer arrays are present together or not at all; when
	// present, the decision sequence covers every completed superstep with
	// push/pull values and the visited bitmap is per-vertex.
	if (len(s.Directions) == 0) != (s.Visited.N == 0) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction arrays mismatched (%d decisions, %d visited)", len(s.Directions), s.Visited.N)}
	}
	if len(s.Directions) > 0 {
		if int64(len(s.Directions)) != want {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction sequence sized %d, want %d (step %d)", len(s.Directions), want, s.Step)}
		}
		if s.Visited.N != s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("visited bitmap sized %d, fingerprint says %d vertices", s.Visited.N, s.FP.Vertices)}
		}
		for i, v := range s.Directions {
			if v != 1 && v != 2 {
				return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction %d has invalid value %d (want 1=push or 2=pull)", i, v)}
			}
		}
	}
	live := s.FP.Vertices
	for _, w := range s.Halted.Words {
		live -= int64(bits.OnesCount64(w))
	}
	if live != s.Live {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("halted set has %d live vertices, header says %d", live, s.Live)}
	}
	return s, nil
}

// FileName returns the canonical file name for the checkpoint at the given
// superstep boundary.
func FileName(step int64) string {
	return fmt.Sprintf("ckpt-%09d%s", step, ext)
}

// EmergencyFileName returns the file name used for the emergency
// checkpoint written when a vertex program panics during superstep step.
func EmergencyFileName(step int64) string {
	return fmt.Sprintf("emergency-%09d%s", step, ext)
}

// frame returns the envelope that precedes payload on disk.
func frame(payload []byte) (hdr [headerLen]byte) {
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	return hdr
}

// unframe reads the file at path and returns its payload once the envelope
// holds: header shape, magic, known version, and payload CRC.
func unframe(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte header", len(data), headerLen)}
	}
	if string(data[:8]) != magic {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("bad magic %q", data[:8])}
	}
	v := binary.LittleEndian.Uint32(data[8:12])
	if v < minVersion || v > version {
		return nil, &VersionError{Path: path, Version: v}
	}
	want := binary.LittleEndian.Uint32(data[12:16])
	payload := data[headerLen:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum mismatch: header %08x, payload %08x", want, got)}
	}
	return payload, nil
}

// WriteFile atomically writes the snapshot to dir/name: encode into a temp
// file in dir, sync, rename. hooks.WrapWrite (fault injection) may
// interpose a failing writer; any failure removes the temp file, leaves
// existing checkpoints untouched, and returns a WriteError.
func WriteFile(dir string, s *Snapshot, name string, hooks *Hooks) (string, error) {
	final := filepath.Join(dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", &WriteError{Path: final, Err: err}
	}
	payload := encode(s)
	hdr := frame(payload)
	if hooks != nil && hooks.TornWrite != nil && hooks.TornWrite(s.Step) {
		// Simulate a crash mid-write on a filesystem without atomic rename:
		// a valid header followed by half the payload lands directly at the
		// final name, and the write reports success so the run carries on
		// oblivious. A later Load of the file fails its CRC check.
		if err := os.WriteFile(final, append(hdr[:], payload[:len(payload)/2]...), 0o644); err != nil {
			return "", &WriteError{Path: final, Err: err}
		}
		return final, nil
	}
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", &WriteError{Path: final, Err: err}
	}
	var w io.Writer = f
	if hooks != nil && hooks.WrapWrite != nil {
		w = hooks.WrapWrite(s.Step, f)
	}
	if _, err = w.Write(hdr[:]); err == nil {
		_, err = w.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), final)
	}
	if err != nil {
		os.Remove(f.Name())
		return "", &WriteError{Path: final, Err: err}
	}
	return final, nil
}

// Load reads, validates, and decodes the checkpoint at path.
func Load(path string) (*Snapshot, error) {
	payload, err := unframe(path)
	if err != nil {
		return nil, err
	}
	return Decode(payload, path)
}

// Verify cheaply checks the structural integrity of the checkpoint at
// path: header shape, magic, known version, and payload CRC. It does not
// decode the payload or compare fingerprints — a nil return means the
// bytes on disk are the bytes that were written, which is the guarantee
// Prune and the fallback chain need.
func Verify(path string) error {
	_, err := unframe(path)
	return err
}

// periodicSteps lists the supersteps of dir's periodic checkpoints, newest
// first. Only exact canonical names count: emergency checkpoints, and the
// ckpt-N.gxckpt.tmpXXXX a kill between WriteFile's CreateTemp and Rename
// leaves behind, are neither resumed from nor pruned.
func periodicSteps(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var steps []int64
	for _, e := range entries {
		var step int64
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d", &step); n == 1 && step >= 0 && FileName(step) == e.Name() {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	return steps, nil
}

// NoValidCheckpointError reports that ResumeLatestValid walked every
// periodic checkpoint in a directory without finding one that loads.
type NoValidCheckpointError struct {
	// Dir is the directory that was searched.
	Dir string
	// Skipped is the number of damaged checkpoints passed over.
	Skipped int
}

func (e *NoValidCheckpointError) Error() string {
	if e.Skipped == 0 {
		return fmt.Sprintf("ckpt: no periodic checkpoints in %s", e.Dir)
	}
	return fmt.Sprintf("ckpt: no valid periodic checkpoint in %s (%d damaged snapshots skipped)", e.Dir, e.Skipped)
}

// ResumeLatestValid walks dir's periodic checkpoints newest-first and
// returns the first one that loads and matches the fingerprint, along
// with its path. Structurally damaged snapshots — CorruptError (torn or
// bit-flipped files, truncation) and VersionError — are skipped, each
// reported through onSkip (may be nil), so a run whose newest checkpoint
// was lost mid-write falls back to the one before it. A fingerprint
// mismatch is a hard error: the snapshot is intact, it just belongs to a
// different run, and silently skipping it would resume wildly stale
// state. When no checkpoint survives the walk the error is a
// *NoValidCheckpointError.
func ResumeLatestValid(dir string, want Fingerprint, onSkip func(path string, err error)) (*Snapshot, string, error) {
	steps, err := periodicSteps(dir)
	if err != nil {
		return nil, "", err
	}
	skipped := 0
	for _, step := range steps {
		path := filepath.Join(dir, FileName(step))
		s, err := Load(path)
		if err != nil {
			var ce *CorruptError
			var ve *VersionError
			if errors.As(err, &ce) || errors.As(err, &ve) {
				skipped++
				if onSkip != nil {
					onSkip(path, err)
				}
				continue
			}
			return nil, "", err
		}
		if err := s.FP.Check(want); err != nil {
			return nil, "", err
		}
		return s, path, nil
	}
	return nil, "", &NoValidCheckpointError{Dir: dir, Skipped: skipped}
}

// Prune removes all but the newest keep periodic checkpoints from dir.
// keep <= 0 keeps everything. Emergency checkpoints are never removed,
// and neither is the newest *valid* periodic checkpoint: when the most
// recent write was torn or bit-flipped, the retention window must not
// age out the snapshot the fallback chain will actually resume from.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	steps, err := periodicSteps(dir)
	if err != nil || len(steps) <= keep {
		return err
	}
	// Find the newest structurally valid snapshot. Only checkpoints inside
	// the doomed tail need verification once a valid one is known to sit
	// inside the retention window.
	newestValid := int64(-1)
	for _, step := range steps {
		if Verify(filepath.Join(dir, FileName(step))) == nil {
			newestValid = step
			break
		}
	}
	for _, step := range steps[keep:] {
		if step == newestValid {
			continue
		}
		if err := os.Remove(filepath.Join(dir, FileName(step))); err != nil {
			return err
		}
	}
	return nil
}
