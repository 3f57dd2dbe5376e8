package obs

import "time"

// teeSink fans one observability event stream out to several sinks, in
// order — how a CLI attaches a post-hoc sink (report/JSONL/chrome), the
// live metrics sink, and a flight recorder to the same run without the
// engine knowing about any of them. Construct with Tee.
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

// FlightDumper is implemented by sinks that keep a crash-time ring of
// recent supersteps (the flight recorder in obs/live). DumpFlight writes
// the ring as JSONL into dir, annotated with cause, and returns the file
// path. The BSP engine invokes it when a vertex-program panic forces an
// emergency checkpoint, so the dump lands next to the checkpoint.
type FlightDumper interface {
	DumpFlight(dir, cause string) (string, error)
}

// FindFlightDumper returns the first FlightDumper reachable from s —
// s itself, or a member of a teeSink — or nil.
func FindFlightDumper(s Sink) FlightDumper {
	if fd, ok := s.(FlightDumper); ok {
		return fd
	}
	if t, ok := s.(*teeSink); ok {
		for _, inner := range t.sinks {
			if fd, ok := inner.(FlightDumper); ok {
				return fd
			}
		}
	}
	return nil
}

// FallbackNoter is implemented by sinks that want to hear about checkpoint
// fallback: each time the resume chain (ckpt.ResumeLatestValid, wired
// through core.Config.ResumeLatest) skips a damaged snapshot, NoteFallback
// receives the skipped file's path and the validation error. Invoked
// before RunStart, once per skipped checkpoint.
type FallbackNoter interface {
	NoteFallback(path string, cause error)
}

// FindFallbackNoter returns a FallbackNoter covering every sink reachable
// from s — s itself, or the members of a teeSink — or nil when none
// implement the interface.
func FindFallbackNoter(s Sink) FallbackNoter {
	if t, ok := s.(*teeSink); ok {
		var out []FallbackNoter
		for _, inner := range t.sinks {
			if fn, ok := inner.(FallbackNoter); ok {
				out = append(out, fn)
			}
		}
		switch len(out) {
		case 0:
			return nil
		case 1:
			return out[0]
		}
		return multiNoter(out)
	}
	if fn, ok := s.(FallbackNoter); ok {
		return fn
	}
	return nil
}

type multiNoter []FallbackNoter

func (m multiNoter) NoteFallback(path string, cause error) {
	for _, fn := range m {
		fn.NoteFallback(path, cause)
	}
}
