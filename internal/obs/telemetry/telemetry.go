// Package telemetry is the live half of the observability layer: an
// opt-in HTTP server exposing a running analysis as standard,
// scrape-friendly endpoints. Nothing in the analysis pipeline depends
// on it — the server only reads the metrics registry and a report
// callback — so a run without a telemetry address pays nothing.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition rendered from the live
//	              *obs.Registry (the same renderer as
//	              `rmarace stats -format prom`).
//	/report       a live run-report snapshot (rmarace/run-report/v1
//	              JSON), the same schema rmarace replay -report writes.
//	/healthz      200 "ok" while the server is up; liveness probe.
//	/debug/pprof  net/http/pprof, because a detector overhead question
//	              usually becomes a profile question within minutes.
//
// The analysis daemon (internal/serve) mounts the same endpoints on its
// own mux through Register, and reuses the Server lifecycle through
// NewServer, so a single-run telemetry socket and the multi-tenant
// daemon share one set of handlers.
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"rmarace/internal/obs"
)

// Sources supplies the server's data. Registry feeds /metrics; Report,
// when non-nil, is called per /report request and should return a
// consistent snapshot of the run so far (returning nil makes the
// handler answer 503, for a run that has already shut down).
// Snapshot, when non-nil, overrides Registry.Snapshot as the /metrics
// source — the analysis daemon uses it to resolve interned tenant ids
// into named (escaped) label values before rendering.
type Sources struct {
	Registry *obs.Registry
	Report   func() *obs.RunReport
	Snapshot func() []obs.MetricSnapshot
}

// Register mounts the telemetry endpoints — /metrics, /report,
// /healthz and /debug/pprof — on mux. Serve uses it for the
// single-run telemetry socket; the analysis daemon mounts the same
// handlers next to its session API.
func Register(mux *http.ServeMux, src Sources) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		switch {
		case src.Snapshot != nil:
			_ = obs.WriteProm(w, src.Snapshot())
		case src.Registry != nil:
			_ = obs.WriteProm(w, src.Registry.Snapshot())
		}
		// neither attached: an empty exposition is valid
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		if src.Report == nil {
			http.Error(w, "no report source attached", http.StatusNotFound)
			return
		}
		rep := src.Report()
		if rep == nil {
			// The callback answers nil when no snapshot is available —
			// e.g. the session already closed. That's a transient server
			// condition, not a handler panic.
			http.Error(w, "report unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rep.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// First token stays "ok" for naive liveness probes; the rest
		// identifies the build so "which binary answered" is one curl.
		b := Build()
		line := "ok " + b.Module + " " + b.Version
		if b.Revision != "" {
			line += " " + b.Revision
		}
		fmt.Fprintln(w, line)
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Build())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server

	// The background Serve goroutine's exit error, surfaced by Close.
	mu       sync.Mutex
	serveErr error
	done     chan struct{}
}

// Serve starts a telemetry server on addr (e.g. ":9090" or
// "127.0.0.1:0"; the OS picks the port when it is 0 — read it back
// with Addr). The server runs until Close.
func Serve(addr string, src Sources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	Register(mux, src)
	return NewServer(ln, mux), nil
}

// Connection timeouts of every Server. A client has readHeaderTimeout
// to send its request headers, and a kept-alive connection closes after
// idleTimeout without a request, so a silent peer cannot hold a
// connection open forever. Neither bounds a request body or a response:
// a trace upload or a CPU profile takes as long as it takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer serves handler on an already-bound listener until Close.
// The run must never die because its telemetry socket did, so a
// background serve failure is stored rather than fatal; it surfaces
// from the next Close call.
func NewServer(ln net.Listener, handler http.Handler) *Server {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s := &Server{ln: ln, srv: srv, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s
}

// Addr returns the server's bound address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL. A TCP listener's unspecified host
// (":0"-style binds) is rewritten to 127.0.0.1 so the URL is dialable;
// any other listener type falls back to splitting its Addr string, so a
// custom listener can't panic the accessor.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	if addr, ok := s.ln.Addr().(*net.TCPAddr); ok {
		host := addr.IP.String()
		if addr.IP.IsUnspecified() {
			host = "127.0.0.1"
		}
		return fmt.Sprintf("http://%s", net.JoinHostPort(host, fmt.Sprint(addr.Port)))
	}
	raw := s.ln.Addr().String()
	if host, port, err := net.SplitHostPort(raw); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			host = "127.0.0.1"
		}
		return fmt.Sprintf("http://%s", net.JoinHostPort(host, port))
	}
	return "http://" + raw
}

// Close shuts the server down, waiting briefly for in-flight scrapes,
// and returns any background serve failure joined with the shutdown
// error. Nil-safe so a run that never enabled telemetry can close
// blindly.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	shutdownErr := s.srv.Shutdown(ctx)
	// Shutdown closes the listener, so the Serve goroutine is about to
	// return (or already failed); wait for it so the stored error is
	// complete before reading it.
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	s.mu.Lock()
	serveErr := s.serveErr
	s.mu.Unlock()
	return errors.Join(serveErr, shutdownErr)
}
