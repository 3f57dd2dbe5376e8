package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// phaseJSON is the serialized form of a Phase: every profile field.
type phaseJSON struct {
	Name     string               `json:"name"`
	Index    int                  `json:"index"`
	Tasks    int64                `json:"tasks"`
	Issue    int64                `json:"issue"`
	Loads    int64                `json:"loads"`
	Stores   int64                `json:"stores"`
	MaxTask  int64                `json:"max_task"`
	Barriers int64                `json:"barriers"`
	Hot      [NumHotClasses]int64 `json:"hot"`
}

type profileJSON struct {
	Version int         `json:"version"`
	Phases  []phaseJSON `json:"phases"`
}

// WriteJSON serializes the recorder's phases. A saved profile can be
// re-evaluated later under any machine configuration without re-running
// the kernel — profiles, not timings, are graphxmt's portable artifact.
func (r *Recorder) WriteJSON(w io.Writer) error {
	out := profileJSON{Version: 1}
	for _, p := range r.Phases() {
		out.Phases = append(out.Phases, phaseJSON{
			Name:     p.Name,
			Index:    p.Index,
			Tasks:    p.Tasks,
			Issue:    p.Issue,
			Loads:    p.Loads,
			Stores:   p.Stores,
			MaxTask:  p.MaxTask,
			Barriers: p.Barriers,
			Hot:      p.Hot,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a profile written by WriteJSON into a fresh Recorder.
func ReadJSON(r io.Reader) (*Recorder, error) {
	var in profileJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decoding profile: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported profile version %d", in.Version)
	}
	rec := NewRecorder()
	for _, pj := range in.Phases {
		if pj.Tasks < 0 || pj.Issue < 0 || pj.Loads < 0 || pj.Stores < 0 ||
			pj.MaxTask < 0 || pj.Barriers < 0 {
			return nil, fmt.Errorf("trace: negative counts in phase %q", pj.Name)
		}
		p := rec.StartPhase(pj.Name, pj.Index)
		p.Tasks = pj.Tasks
		p.Issue = pj.Issue
		p.Loads = pj.Loads
		p.Stores = pj.Stores
		p.MaxTask = pj.MaxTask
		p.Barriers = pj.Barriers
		p.Hot = pj.Hot
	}
	return rec, nil
}
