package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof host:port serves the debug endpoints
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"graphxmt/internal/par"
	"graphxmt/internal/trace"
)

// CLIFlags is the shared observability flag set of the graphxmt commands:
//
//	-workers N      host worker count (also GRAPHXMT_WORKERS; 0 = GOMAXPROCS)
//	-obs-format F   report | jsonl | chrome
//	-obs-out PATH   observability output file (report defaults to stdout)
//	-pprof X        host:port serves net/http/pprof; any other value is a
//	                file path receiving a CPU profile of the run
//
// Register with AddFlags, then call Start after flag.Parse and Close when
// done.
type CLIFlags struct {
	Workers int
	Format  string
	Out     string
	PProf   string

	envErr error
}

// AddFlags registers the observability flag set on fs; -workers defaults
// to GRAPHXMT_WORKERS.
func AddFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	def := 0
	if v := os.Getenv("GRAPHXMT_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			def = n
		} else {
			c.envErr = fmt.Errorf("obs: invalid GRAPHXMT_WORKERS=%q (want a positive integer)", v)
		}
	}
	fs.IntVar(&c.Workers, "workers", def, "host worker count (0 = GOMAXPROCS; env GRAPHXMT_WORKERS)")
	fs.StringVar(&c.Format, "obs-format", "", "host observability format: report, jsonl, or chrome (empty = off)")
	fs.StringVar(&c.Out, "obs-out", "", "host observability output path (report defaults to stdout)")
	fs.StringVar(&c.PProf, "pprof", "", "host:port to serve net/http/pprof, or a file path for a CPU profile")
	return c
}

// Session is a started observability session: the sink to attach (nil when
// observability is off — -workers and -pprof still applied), plus the
// teardown Close runs in setup order: stop pprof, render or flush the
// sink, close its file, restore the recorder factory.
type Session struct {
	Sink      Sink
	closers   []func() error
	mu        sync.Mutex
	observers []*RecorderObserver
}

// Start validates the flags and opens the session: applies the worker
// count, starts pprof, and builds the sink. Errors are usage errors — the
// caller should print them and exit 2.
func (c *CLIFlags) Start() (*Session, error) {
	if c.envErr != nil && c.Workers == 0 {
		return nil, c.envErr
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("obs: -workers must be >= 0 (0 = GOMAXPROCS), got %d", c.Workers)
	}
	par.SetWorkers(c.Workers)

	s := &Session{}
	if c.PProf != "" {
		if err := s.startPProf(c.PProf); err != nil {
			return nil, err
		}
	}

	format := strings.TrimSpace(c.Format)
	if format == "" && c.Out != "" {
		format = "report"
	}
	switch {
	case format == "":
		return s, nil
	case format != "report" && format != "jsonl" && format != "chrome":
		return nil, fmt.Errorf("obs: unknown -obs-format %q (want report, jsonl, or chrome)", format)
	case format != "report" && c.Out == "":
		return nil, fmt.Errorf("obs: -obs-format %s requires -obs-out", format)
	}
	var w io.Writer = os.Stdout
	if c.Out != "" {
		f, err := os.Create(c.Out)
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		w = f
		// Closed once the sink below has flushed into it.
		defer func() { s.closers = append(s.closers, f.Close) }()
	}
	switch format {
	case "report":
		r := NewReport()
		s.Sink, s.closers = r, append(s.closers, func() error { return r.Render(w) })
	case "jsonl":
		j := NewJSONL(w)
		s.Sink, s.closers = j, append(s.closers, j.Close)
	case "chrome":
		ch := NewChrome(w)
		s.Sink, s.closers = ch, append(s.closers, ch.Close)
	}
	return s, nil
}

// startPProf interprets spec: "host:port" (no path separator) serves
// net/http/pprof; anything else is a file receiving a CPU profile.
func (s *Session) startPProf(spec string) error {
	if strings.Contains(spec, ":") && !strings.ContainsAny(spec, "/\\") {
		go func() {
			if err := http.ListenAndServe(spec, nil); err != nil {
				fmt.Fprintln(os.Stderr, "obs: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "obs: pprof at http://%s/debug/pprof/\n", spec)
		return nil
	}
	f, err := os.Create(spec)
	if err != nil {
		return fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: cpu profile: %w", err)
	}
	s.closers = append(s.closers, func() error {
		pprof.StopCPUProfile()
		return f.Close()
	})
	return nil
}

// AddSink tees extra into the session's sink (before or instead of the
// flag-selected one). Call before Attach/InstallFactory — observers hold the
// sink pointer they were built with. A nil extra is a no-op, so callers can
// pass an optional component's sink unconditionally.
func (s *Session) AddSink(extra Sink) {
	s.Sink = Tee(s.Sink, extra)
}

// Attach wires the session's sink to rec as a RecorderObserver (no-op
// without a sink): the phases of the shared-memory kernel recording on rec
// become spans. BSP runs take the sink from core.Config.Obs instead.
// vertices and edges annotate the run when known (pass 0 otherwise).
func (s *Session) Attach(rec *trace.Recorder, vertices, edges int64) {
	if s.Sink != nil && rec != nil {
		rec.SetObserver(s.observer(vertices, edges))
	}
}

// InstallFactory makes every trace.NewRecorder in the process carry a
// session observer — the wiring for commands whose kernels build recorders
// internally (xmtbench). Close restores the previous factory. No-op
// without a sink.
func (s *Session) InstallFactory() {
	if s.Sink == nil {
		return
	}
	prev := trace.SetObserverFactory(func() any { return s.observer(0, 0) })
	s.closers = append(s.closers, func() error { trace.SetObserverFactory(prev); return nil })
}

// observer returns an observer of the session's sink that Close finishes.
func (s *Session) observer(vertices, edges int64) *RecorderObserver {
	o := NewRecorderObserver(s.Sink, vertices, edges)
	s.mu.Lock()
	s.observers = append(s.observers, o)
	s.mu.Unlock()
	return o
}

// Close finishes open observers, renders/flushes the sink, stops pprof,
// and closes output files; the first error wins.
func (s *Session) Close() error {
	s.mu.Lock()
	observers := s.observers
	s.observers = nil
	s.mu.Unlock()
	for _, o := range observers {
		o.Finish()
	}
	var first error
	for _, c := range s.closers {
		if err := c(); first == nil {
			first = err
		}
	}
	return first
}
