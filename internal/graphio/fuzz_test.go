package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// FuzzReadDIMACS checks the text parser never panics, rejects defects with
// a typed *ParseError, and that anything it accepts is a structurally
// valid graph.
func FuzzReadDIMACS(f *testing.F) {
	f.Add("p edge 4 3\ne 1 2\ne 2 3 7\ne 4 4\n")
	f.Add("c comment\np edge 2 1\ne 1 2\n")
	f.Add("")
	f.Add("p edge 0 0\n")
	f.Add("p edge 1000000 1\ne 1 1\n")
	f.Add("e 1 2\np edge 2 1\n")
	f.Add("p edge 3 2\na 1 2 -5\na 2 3 9223372036854775807\n")
	f.Add("p edge 2 1\ne 1 2 extra fields here\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := readDIMACS(strings.NewReader(input))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is not a *ParseError: %T %v\ninput: %q", err, err, input)
			}
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", verr, input)
		}
	})
}

// FuzzReadEdgeList checks the SNAP-style edge-list parser never panics,
// rejects defects with a typed *ParseError, and that accepted inputs
// build valid graphs.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# comment\n% another\n3 4 17\n")
	f.Add("")
	f.Add("5 5\n")
	f.Add("0 1 2 trailing junk\n")
	f.Add("-1 2\n")
	f.Add("0 99999999999999999999\n")
	f.Add("0 1 notanumber\n")
	f.Add("1000000000 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := readEdgeList(strings.NewReader(input))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is not a *ParseError: %T %v\ninput: %q", err, err, input)
			}
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", verr, input)
		}
	})
}

// FuzzReadBinary checks the binary reader never panics on corrupt bytes,
// rejects every defect with a typed *CorruptError, and that accepted
// payloads validate.
func FuzzReadBinary(f *testing.F) {
	// Seed with a real snapshot and some mutations of it.
	var buf bytes.Buffer
	if err := writeBinary(&buf, gen.CliqueChain(2, 3)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("GXMTCSR1"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	if len(flipped) > 20 {
		flipped[18] ^= 0xff // corrupt the header
	}
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0)) // trailing garbage
	badFlags := append([]byte(nil), valid...)
	badFlags[8] |= 0x80 // unknown flag bit
	f.Add(badFlags)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readBinary(bytes.NewReader(data))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is not a *CorruptError: %T %v", err, err)
			}
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
	})
}

// FuzzOpenCSR2 feeds arbitrary file images to both CSR2 loaders: the
// zero-copy csr2FromMapping and the streaming readCSR2. Each must return a
// graph or a typed *CorruptError, never panic. A graph that comes back has
// passed only the O(n) checks at open, so the O(E) VerifyCompressed sweep
// over it must return nil or a typed *graph.DecodeError.
func FuzzOpenCSR2(f *testing.F) {
	image := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := writeCSR2(&buf, g); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := image(gen.CliqueChain(2, 3))
	f.Add(valid)
	f.Add(image(graph.MustBuild(3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}, graph.BuildOptions{Weights: []int64{4, -1}})))
	f.Add([]byte{})
	f.Add(valid[:csr2Header])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	directed := append([]byte(nil), valid...)
	directed[8] |= flagDigraph
	f.Add(directed)
	// Vertex 1's stream names itself (zigzag delta 0): a layout-valid file
	// whose defect only the O(E) sweep sees.
	loop := image(gen.Path(2))
	_, _, blobOff, _, _ := csr2Layout(2, 2, 2, false)
	loop[blobOff+1] = 0
	f.Add(loop)
	// An empty graph whose header claims a terabyte of blob: the stream
	// reader once allocated it before reading, and the runtime died.
	huge := make([]byte, 3*csr2Align)
	copy(huge, magic2[:])
	binary.LittleEndian.PutUint64(huge[32:], 1<<40)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The zero-copy views need the 8-byte alignment an mmap'd file has.
		words := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
		copy(aligned, data)
		mapped, err := csr2FromMapping(aligned)
		checkCSR2Load(t, "csr2FromMapping", mapped, err)
		streamed, err := readCSR2(bytes.NewReader(data))
		checkCSR2Load(t, "readCSR2", streamed, err)
		if (mapped == nil) != (streamed == nil) {
			t.Fatalf("csr2FromMapping returned %v, readCSR2 %v", mapped, streamed)
		}
	})
}

func checkCSR2Load(t *testing.T, loader string, g *graph.Graph, err error) {
	t.Helper()
	if err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: rejection is not a *CorruptError: %T %v", loader, err, err)
		}
		return
	}
	if verr := g.VerifyCompressed(); verr != nil {
		var de *graph.DecodeError
		if !errors.As(verr, &de) {
			t.Fatalf("%s: VerifyCompressed returned %T %v, want nil or *graph.DecodeError", loader, verr, verr)
		}
	}
}

// TestBinaryRejectionsTyped pins the Section names for the common defect
// classes — these are part of the loader's error contract.
func TestBinaryRejectionsTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBinary(&buf, gen.CliqueChain(2, 3)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		section string
	}{
		{"empty", func(b []byte) []byte { return nil }, "magic"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}, "magic"},
		{"truncated header", func(b []byte) []byte { return b[:12] }, "header"},
		{"unknown flags", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] |= 0x80
			return c
		}, "header"},
		{"directed flag", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] |= flagDigraph
			return c
		}, "header"},
		{"truncated offsets", func(b []byte) []byte { return b[:40] }, "offsets"},
		{"truncated adjacency", func(b []byte) []byte { return b[:len(b)-8] }, "adjacency"},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xEE) }, "trailer"},
		{"broken CSR", func(b []byte) []byte {
			// Point an adjacency entry out of range.
			c := append([]byte(nil), b...)
			for i := len(c) - 8; i < len(c); i++ {
				c[i] = 0x7f
			}
			return c
		}, "structure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readBinary(bytes.NewReader(tc.mutate(valid)))
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CorruptError, got %T %v", err, err)
			}
			if ce.Section != tc.section {
				t.Fatalf("section %q, want %q (err: %v)", ce.Section, tc.section, ce)
			}
		})
	}
}

// TestParseErrorsTyped pins line attribution for the text parsers.
func TestParseErrorsTyped(t *testing.T) {
	_, err := readEdgeList(strings.NewReader("0 1\nbogus\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T %v", err, err)
	}
	if pe.Line != 2 {
		t.Fatalf("edge list defect attributed to line %d, want 2", pe.Line)
	}

	_, err = readDIMACS(strings.NewReader("c ok\np edge 2 1\ne 1 9\n"))
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T %v", err, err)
	}
	if pe.Line != 3 {
		t.Fatalf("DIMACS defect attributed to line %d, want 3", pe.Line)
	}

	_, err = readDIMACS(strings.NewReader("c only comments\n"))
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T %v", err, err)
	}
	if pe.Line != 0 {
		t.Fatalf("whole-file defect attributed to line %d, want 0", pe.Line)
	}
}
