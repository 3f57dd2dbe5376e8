package ckpt

import "path/filepath"

// Encode exposes the payload encoder to the external tests.
var Encode = encode

// Version is the format version the writer stamps and the reader accepts.
const Version = version

// LatestPath returns the highest-step periodic checkpoint in dir, or ""
// when dir contains none: the checkpoint ResumeLatestValid tries first.
func LatestPath(dir string) (string, error) {
	steps, err := periodicSteps(dir)
	if err != nil || len(steps) == 0 {
		return "", err
	}
	return filepath.Join(dir, FileName(steps[0])), nil
}

// BulkField locates one whole-array field of a payload: its N elements of
// Elem bytes each start at Off, right after the 8-byte length.
type BulkField struct{ Off, N, Elem int }

// BulkFields lists s's int64s and bitmap fields in payload order.
func BulkFields(s *Snapshot) []BulkField {
	var m marker
	s.walk(&m)
	return m.fields
}

// marker is a sizer that notes where each whole-array field lands.
type marker struct {
	sizer
	fields []BulkField
}

func (m *marker) int64s(s *[]int64) {
	m.fields = append(m.fields, BulkField{int(m.sizer) + 8, len(*s), 8})
	m.sizer.int64s(s)
}

func (m *marker) bitmap(b *Bitmap) {
	m.fields = append(m.fields, BulkField{int(m.sizer) + 8, int(b.N), 1})
	m.sizer.bitmap(b)
}
