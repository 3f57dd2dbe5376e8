// Package live is the in-process introspection layer over the obs event
// stream: a metrics-fed HTTP endpoint and a crash-time flight recorder.
// Where the post-hoc sinks in package obs render at run end (report) or
// for offline tooling (JSONL), live answers "what is this run doing *right
// now*" — scrape /metrics mid-run, GET /runs/current for the superstep the
// engine is on, attach a profiler through the standard pprof mux — and
// "what was it doing when it died" — the latest supersteps dumped next to
// the emergency checkpoint.
//
// A Server tees two sinks (Server.Sink): the obs.Metrics registry feeder
// and an obs.Store, which records the stream once for the JSON endpoints
// and is also the flight recorder a crash dumps. Attach that sink to a run
// (obs.Session.AddSink, or core.Config.Obs directly) and start the
// listener; the endpoints are:
//
//	/metrics       Prometheus text exposition (format 0.0.4, no client lib)
//	/runs          JSON: the last runs observed, per-step detail included
//	/runs/current  JSON: the in-flight run (404 when none was observed yet)
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Like every sink, the composed sink is fed from the observed run's driving
// goroutine; the HTTP handlers read concurrently through atomics (metrics)
// and the store's mutex, and observability still never changes results —
// the determinism matrix runs with a live Server attached.
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"graphxmt/internal/metrics"
	"graphxmt/internal/obs"
)

// maxRuns bounds the runs /runs shows, the oldest evicted first;
// maxStepsPerRun bounds each run's step detail — beyond it only counters
// and the latest superstep advance (truncated_steps counts the rest).
const maxRuns, maxStepsPerRun = 16, 4096

// Server is the live introspection endpoint. Construct with NewServer,
// attach Sink() to the runs to observe, then Start (or mount Handler on an
// existing mux).
type Server struct {
	metrics *obs.Metrics
	store   *obs.Store
	sink    obs.Sink

	mu sync.Mutex
	ln net.Listener
	hs *http.Server
}

// NewServer returns a server feeding reg (nil creates a fresh registry)
// whose flight dump holds flightDepth supersteps (<= 0 selects 32).
func NewServer(reg *metrics.Registry, flightDepth int) *Server {
	s := &Server{
		metrics: obs.NewMetrics(reg),
		store:   &obs.Store{Head: maxStepsPerRun, Tail: flightDepth, MaxRuns: maxRuns},
	}
	s.sink = obs.Tee(s.metrics, s.store)
	return s
}

// Sink returns the sink to attach to observed runs: metrics registry and
// store behind one tee. The tee also makes the store reachable by the
// engine's flight-dump hook (obs.Find).
func (s *Server) Sink() obs.Sink { return s.sink }

// Flight returns the server's store, for SIGQUIT handlers to dump.
func (s *Server) Flight() *obs.Store { return s.store }

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
		Runs []obs.RunSummary `json:"runs"`
	}{s.store.Runs()})
}

func (s *Server) handleCurrent(w http.ResponseWriter, r *http.Request) {
	runs := s.store.Runs()
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
