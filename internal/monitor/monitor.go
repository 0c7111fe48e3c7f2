// Package monitor exposes a running training job's statistics over HTTP —
// the observability surface a production data-loading runtime needs:
//
//	/metrics         Prometheus text exposition of an attached
//	                 obs.Registry (404 until SetRegistry)
//	/trace.json      Chrome trace-event dump of an attached
//	                 obs.TraceRing, loadable in Perfetto
//	                 (404 until SetTrace)
//	/debug/pprof/*   the standard Go profiling endpoints
//	/healthz         liveness probe, staleness-aware (SetMaxStale);
//	                 healthy responses are JSON and include the
//	                 snapshot's HealthSignaler counters when it has them
//
// The server is generic: anything that can produce a snapshot value can
// be health-checked. The online runtime publishes a runtime.Progress
// every iteration (see runtime.Options.OnProgress); attach the run's
// obs.Registry and obs.TraceRing for the live per-stage view.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// shutdownTimeout bounds how long Close waits for in-flight scrapes to
// finish before forcibly closing connections.
const shutdownTimeout = 2 * time.Second

// Server serves the attached registry and trace ring, and health-checks
// the most recently published snapshot.
type Server struct {
	ln      net.Listener
	httpSrv *http.Server

	mu       sync.RWMutex
	snapshot any
	updated  time.Time
	updates  atomic.Uint64

	// maxStale (ns) is the /healthz staleness window; 0 disables the
	// staleness check (a snapshot, once published, keeps the probe ok).
	maxStale atomic.Int64

	reg   atomic.Pointer[obs.Registry]
	trace atomic.Pointer[obs.TraceRing]
}

// Serve starts the monitor on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	s := &Server{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln) //lint:allow errcheck Serve always returns non-nil on Close; nothing to do with it
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Update publishes a new snapshot. Safe for concurrent use.
func (s *Server) Update(snapshot any) {
	s.mu.Lock()
	s.snapshot = snapshot
	s.updated = time.Now()
	s.mu.Unlock()
	s.updates.Add(1)
}

// Updates returns the number of snapshots published.
func (s *Server) Updates() uint64 { return s.updates.Load() }

// SetMaxStale makes /healthz fail once the last Update is older than d.
// A runtime that hangs mid-run stops publishing; without a staleness
// window the probe would report ok forever on the frozen snapshot.
// d <= 0 disables the check.
func (s *Server) SetMaxStale(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.maxStale.Store(int64(d))
}

// SetRegistry attaches the instrument registry served at /metrics.
func (s *Server) SetRegistry(r *obs.Registry) { s.reg.Store(r) }

// SetTrace attaches the span ring served at /trace.json.
func (s *Server) SetTrace(tr *obs.TraceRing) { s.trace.Store(tr) }

// Close shuts the server down gracefully: in-flight scrapes get up to
// shutdownTimeout to finish before connections are forcibly closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		// Stragglers past the deadline: cut them.
		return s.httpSrv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.reg.Load()
	if reg == nil {
		http.Error(w, "no instrument registry attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := reg.WritePrometheus(w); err != nil {
		// Headers are gone; the truncated body is the client's signal.
		return
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	tr := s.trace.Load()
	if tr == nil {
		http.Error(w, "no trace ring attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="lobster-trace.json"`)
	if err := tr.WriteJSON(w); err != nil {
		return // client disconnect mid-dump; nothing actionable
	}
}

// HealthSignaler lets a snapshot type surface recovery- and
// overload-pressure counters through /healthz: a published snapshot
// implementing it gets its counters embedded in the healthy JSON body
// (runtime.Progress reports failovers and partial fan-outs,
// kvstore.Stats its shed counters), so a probe that is "up" can still
// show a deployment degrading before anyone opens /metrics.
type HealthSignaler interface {
	HealthSignals() map[string]uint64
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	snap := s.snapshot
	updated := s.updated
	s.mu.RUnlock()
	if snap == nil {
		http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
		return
	}
	if window := time.Duration(s.maxStale.Load()); window > 0 {
		if age := time.Since(updated); age > window {
			http.Error(w, fmt.Sprintf("snapshot stale: last update %s ago (max %s)", age.Round(time.Millisecond), window),
				http.StatusServiceUnavailable)
			return
		}
	}
	out := map[string]any{
		"status":  "ok",
		"updates": s.updates.Load(),
	}
	if hs, ok := snap.(HealthSignaler); ok {
		out["signals"] = hs.HealthSignals()
	}
	w.Header().Set("Content-Type", "application/json")
	// Best-effort health probe; client disconnects are not actionable.
	_ = json.NewEncoder(w).Encode(out)
}
