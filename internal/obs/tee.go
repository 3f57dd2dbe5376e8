package obs

import "time"

// teeSink fans one observability event stream out to several sinks, in
// order — how a CLI attaches a post-hoc sink (report/JSONL/chrome), the
// live metrics sink and store to the same run without the engine knowing
// about any of them. Construct with Tee.
type teeSink struct{ sinks []Sink }

// Tee composes sinks into one. Nil sinks are dropped and nested tees are
// flattened; zero remaining sinks return nil (the engine's disabled state)
// and a single remaining sink is returned unwrapped, so the hot path never
// pays for indirection it doesn't need.
func Tee(sinks ...Sink) Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		switch t := s.(type) {
		case nil:
			continue
		case *teeSink:
			out = append(out, t.sinks...)
		default:
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return &teeSink{sinks: out}
}

// RunStart implements Sink.
func (t *teeSink) RunStart(info RunInfo) {
	for _, s := range t.sinks {
		s.RunStart(info)
	}
}

// Span implements Sink.
func (t *teeSink) Span(sp Span) {
	for _, s := range t.sinks {
		s.Span(sp)
	}
}

// Step implements Sink.
func (t *teeSink) Step(st StepStats) {
	for _, s := range t.sinks {
		s.Step(st)
	}
}

// Mem implements Sink.
func (t *teeSink) Mem(m MemSample) {
	for _, s := range t.sinks {
		s.Mem(m)
	}
}

// RunEnd implements Sink.
func (t *teeSink) RunEnd(wall time.Duration) {
	for _, s := range t.sinks {
		s.RunEnd(wall)
	}
}

// FallbackNoter is implemented by sinks that want to hear about checkpoint
// fallback: each time the resume chain (ckpt.ResumeLatestValid, wired
// through core.WithResumeLatest) skips a damaged snapshot, NoteFallback
// receives the skipped file's path and the validation error. Invoked
// before RunStart, once per skipped checkpoint.
type FallbackNoter interface {
	NoteFallback(path string, cause error)
}

// Find returns the sinks composed into s — s itself, or each member of a
// Tee — that are a T: how the engine reaches the FallbackNoters and the
// flight recorder (*Store) behind its one sink.
func Find[T any](s Sink) []T {
	members := []Sink{s}
	if t, ok := s.(*teeSink); ok {
		members = t.sinks
	}
	var out []T
	for _, m := range members {
		if v, ok := m.(T); ok {
			out = append(out, v)
		}
	}
	return out
}
