// Package live is the in-process introspection layer over the obs event
// stream: a metrics-fed HTTP endpoint and a crash-time flight recorder.
// Where the sinks in package obs are post-hoc (report at run end, JSONL
// for offline tooling), live answers "what is this run doing *right now*"
// — scrape /metrics mid-run, GET /runs/current for the superstep the
// engine is on, attach a profiler through the standard pprof mux — and
// "what was it doing when it died" — the flight recorder's last-N-steps
// ring dumped next to the emergency checkpoint.
//
// A Server composes three sinks behind one obs.Tee (Server.Sink): the
// obs.Metrics registry feeder, a run log for the JSON endpoints, and a
// FlightRecorder. Attach that sink to a run (obs.Session.AddSink, or
// core.Config.Obs directly) and start the listener; the endpoints are:
//
//	/metrics       Prometheus text exposition (format 0.0.4, no client lib)
//	/runs          JSON: the last runs observed, per-step detail included
//	/runs/current  JSON: the in-flight run (404 when none was observed yet)
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Like every sink, the composed sink is fed from the observed run's driving
// goroutine; the HTTP handlers read concurrently through atomics (metrics)
// and a mutex (run log), and observability still never changes results —
// the determinism matrix runs with a live Server attached.
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"graphxmt/internal/metrics"
	"graphxmt/internal/obs"
)

// maxRuns bounds the run log; the oldest run is evicted first.
const maxRuns = 16

// maxStepsPerRun bounds per-run step detail; beyond it only counters and
// the latest superstep advance (TruncatedSteps counts what was dropped).
const maxStepsPerRun = 4096

// Server is the live introspection endpoint. Construct with NewServer,
// attach Sink() to the runs to observe, then Start (or mount Handler on an
// existing mux).
type Server struct {
	metrics *obs.Metrics
	runs    *runLog
	flight  *FlightRecorder
	sink    obs.Sink

	mu sync.Mutex
	ln net.Listener
	hs *http.Server
}

// NewServer returns a server feeding reg (nil creates a fresh registry)
// with a flight ring of flightDepth supersteps (<= 0 selects
// defaultFlightDepth).
func NewServer(reg *metrics.Registry, flightDepth int) *Server {
	s := &Server{
		metrics: obs.NewMetrics(reg),
		runs:    &runLog{},
		flight:  NewFlightRecorder(flightDepth),
	}
	s.sink = obs.Tee(s.metrics, s.runs, s.flight)
	return s
}

// Sink returns the sink to attach to observed runs: metrics registry, run
// log, and flight recorder behind one tee. The tee also makes the server
// discoverable by the engine's flight-dump hook (obs.FindFlightDumper).
func (s *Server) Sink() obs.Sink { return s.sink }

// Registry returns the metrics registry the server scrapes.
func (s *Server) Registry() *metrics.Registry { return s.metrics.Registry() }

// Flight returns the server's flight recorder (for SIGQUIT handlers).
func (s *Server) Flight() *FlightRecorder { return s.flight }

// Handler returns the introspection mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/runs/current", s.handleCurrent)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (host:port; ":0" picks a free port — read it back
// with Addr) and serves the introspection mux until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go hs.Serve(ln) // Serve returns ErrServerClosed after Close
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe before Start and after a prior Close.
func (s *Server) Close() error {
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ExpositionContentType)
	s.metrics.Registry().WritePrometheus(w)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Runs []runJSON `json:"runs"`
	}{s.runs.snapshot()})
}

func (s *Server) handleCurrent(w http.ResponseWriter, r *http.Request) {
	runs := s.runs.snapshot()
	if len(runs) == 0 {
		http.Error(w, `{"error":"no run observed yet"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, runs[len(runs)-1])
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// runLog is the sink behind /runs: a bounded log of observed runs with
// per-superstep detail. It locks internally because HTTP reads race the
// driving goroutine's writes.
type runLog struct {
	mu   sync.Mutex
	runs []*runState
}

type runState struct {
	label     string
	workers   int
	vertices  int64
	edges     int64
	started   time.Time
	steps     []obs.StepEvent
	truncated int
	lastStep  int
	lastCkpt  time.Time // zero = no checkpoint observed
	retries   int64
	stalls    int64
	done      bool
	wall      time.Duration
}

// runJSON is the wire schema of one run (docs/OBSERVABILITY.md).
type runJSON struct {
	Label     string          `json:"label"`
	Workers   int             `json:"workers"`
	Vertices  int64           `json:"vertices,omitempty"`
	Edges     int64           `json:"edges,omitempty"`
	Superstep int             `json:"superstep"`
	Done      bool            `json:"done"`
	WallUs    float64         `json:"wall_us,omitempty"`
	AgeUs     float64         `json:"age_us"`
	CkptAgeUs float64         `json:"last_checkpoint_age_us,omitempty"`
	Truncated int             `json:"truncated_steps,omitempty"`
	Retries   int64           `json:"retries,omitempty"`
	Stalls    int64           `json:"stalls,omitempty"`
	Steps     []obs.StepEvent `json:"steps"`
}

// RunStart implements obs.Sink.
func (l *runLog) RunStart(info obs.RunInfo) {
	l.mu.Lock()
	if len(l.runs) == maxRuns {
		copy(l.runs, l.runs[1:])
		l.runs = l.runs[:maxRuns-1]
	}
	l.runs = append(l.runs, &runState{
		label:    info.Label,
		workers:  info.Workers,
		vertices: info.Vertices,
		edges:    info.Edges,
		started:  time.Now(),
		lastStep: -1,
	})
	l.mu.Unlock()
}

// Span implements obs.Sink: only the checkpoint span matters here (it
// timestamps "last checkpoint" for the age the JSON reports).
func (l *runLog) Span(s obs.Span) {
	if s.Name != "checkpoint" {
		return
	}
	l.mu.Lock()
	if r := l.current(); r != nil {
		r.lastCkpt = time.Now()
	}
	l.mu.Unlock()
}

// Step implements obs.Sink.
func (l *runLog) Step(st obs.StepStats) {
	l.mu.Lock()
	if r := l.current(); r != nil {
		r.lastStep = st.Step
		r.retries += st.Retries
		if st.Stalled {
			r.stalls++
		}
		if len(r.steps) < maxStepsPerRun {
			r.steps = append(r.steps, obs.NewStepEvent(st))
		} else {
			r.truncated++
		}
	}
	l.mu.Unlock()
}

// Mem implements obs.Sink.
func (l *runLog) Mem(obs.MemSample) {}

// RunEnd implements obs.Sink.
func (l *runLog) RunEnd(wall time.Duration) {
	l.mu.Lock()
	if r := l.current(); r != nil {
		r.done = true
		r.wall = wall
	}
	l.mu.Unlock()
}

// current returns the most recent run; callers hold l.mu.
func (l *runLog) current() *runState {
	if len(l.runs) == 0 {
		return nil
	}
	return l.runs[len(l.runs)-1]
}

func (l *runLog) snapshot() []runJSON {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	out := make([]runJSON, len(l.runs))
	for i, r := range l.runs {
		j := runJSON{
			Label:     r.label,
			Workers:   r.workers,
			Vertices:  r.vertices,
			Edges:     r.edges,
			Superstep: r.lastStep,
			Done:      r.done,
			AgeUs:     float64(now.Sub(r.started).Nanoseconds()) / 1e3,
			Truncated: r.truncated,
			Retries:   r.retries,
			Stalls:    r.stalls,
			Steps:     append([]obs.StepEvent(nil), r.steps...),
		}
		if r.done {
			j.WallUs = float64(r.wall.Nanoseconds()) / 1e3
		}
		if !r.lastCkpt.IsZero() {
			j.CkptAgeUs = float64(now.Sub(r.lastCkpt).Nanoseconds()) / 1e3
		}
		out[i] = j
	}
	return out
}
