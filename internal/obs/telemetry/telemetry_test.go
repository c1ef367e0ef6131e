package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rmarace/internal/obs"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServeEndpoints: /healthz answers, /metrics serves the shared
// Prometheus renderer's exact output for the live registry, and
// /report serves a valid run-report document.
func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.EngineReceived, 0, 3)
	srv, err := Serve("127.0.0.1:0", Sources{
		Registry: reg,
		Report: func() *obs.RunReport {
			return &obs.RunReport{Schema: obs.ReportSchema, Source: "run", Metrics: reg.Snapshot()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, _ := get(t, srv.URL()+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok ") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// The liveness line identifies the build: "ok <module> <version>".
	if !strings.Contains(body, "rmarace") {
		t.Fatalf("/healthz carries no build identity: %q", body)
	}

	code, body, hdr := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var want bytes.Buffer
	if err := obs.WriteProm(&want, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("/metrics diverged from WriteProm:\n--- got ---\n%s--- want ---\n%s", body, want.String())
	}

	code, body, hdr = get(t, srv.URL()+"/report")
	if code != http.StatusOK {
		t.Fatalf("/report status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/report content type %q", ct)
	}
	rep, err := obs.ReadReport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/report is not a valid run report: %v", err)
	}
	if rep.Source != "run" {
		t.Fatalf("report source %q", rep.Source)
	}
}

// TestScrapeTracksRegistry: successive scrapes see the registry's
// live values — a mid-run scrape reads the run so far, and the final
// scrape matches the final report's metrics exactly.
func TestScrapeTracksRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", Sources{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg.Add(obs.StoreInserts, 1, 10) // "mid-run"
	_, mid, _ := get(t, srv.URL()+"/metrics")
	if !strings.Contains(mid, `rmarace_store_inserts{rank="1"} 10`) {
		t.Fatalf("mid-run scrape missing counter:\n%s", mid)
	}

	reg.Add(obs.StoreInserts, 1, 5) // the run finishes
	_, fin, _ := get(t, srv.URL()+"/metrics")
	if !strings.Contains(fin, `rmarace_store_inserts{rank="1"} 15`) {
		t.Fatalf("final scrape stale:\n%s", fin)
	}
	var fromReport bytes.Buffer
	if err := obs.WriteProm(&fromReport, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if fin != fromReport.String() {
		t.Fatalf("final scrape diverged from final report metrics:\n--- scrape ---\n%s--- report ---\n%s", fin, fromReport.String())
	}
}

// TestReportWithoutSource: /report without a callback is a 404, and an
// empty registry still serves a valid (empty) exposition.
func TestReportWithoutSource(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, _, _ := get(t, srv.URL()+"/report")
	if code != http.StatusNotFound {
		t.Fatalf("/report without source = %d, want 404", code)
	}
	code, body, _ := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("/metrics without registry = %d %q", code, body)
	}
}

// TestCloseStopsServing: after Close the listener is gone; a nil
// server closes without panicking.
func TestCloseStopsServing(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after Close")
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
	if nilSrv.Addr() != "" || nilSrv.URL() != "" {
		t.Fatal("nil server has an address")
	}
}

// TestNilReportAnswers503: a Report callback that returns nil (the
// session already closed) must answer 503, not panic the handler.
func TestNilReportAnswers503(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Sources{
		Report: func() *obs.RunReport { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, _ := get(t, srv.URL()+"/report")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/report with nil snapshot = %d %q, want 503", code, body)
	}
	// The server survived the request: the next endpoint still answers.
	if code, _, _ := get(t, srv.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("server died after nil report: healthz = %d", code)
	}
}

// failingListener fails its first Accept with a permanent error, which
// makes http.Server.Serve return immediately — the background failure
// the server promises to surface on Close.
type failingListener struct {
	addr   net.Addr
	closed chan struct{}
}

var errAcceptBoom = errors.New("synthetic accept failure")

func (l *failingListener) Accept() (net.Conn, error) { return nil, errAcceptBoom }
func (l *failingListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}
func (l *failingListener) Addr() net.Addr { return l.addr }

// blockingListener accepts nothing and blocks until closed — a stand-in
// for any custom (non-TCP) listener type.
type blockingListener struct {
	addr   net.Addr
	closed chan struct{}
}

func (l *blockingListener) Accept() (net.Conn, error) {
	<-l.closed
	return nil, net.ErrClosed
}
func (l *blockingListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}
func (l *blockingListener) Addr() net.Addr { return l.addr }

type strAddr string

func (a strAddr) Network() string { return "custom" }
func (a strAddr) String() string  { return string(a) }

// TestServeErrorSurfacesOnClose: a listener that dies in the background
// must not be swallowed — Close returns the stored serve error.
func TestServeErrorSurfacesOnClose(t *testing.T) {
	ln := &failingListener{addr: strAddr("failing:0"), closed: make(chan struct{})}
	srv := NewServer(ln, http.NewServeMux())
	// Wait for the background goroutine to hit the Accept failure (a
	// Shutdown racing ahead of the first Accept would make Serve return
	// ErrServerClosed instead, which is exactly the non-failure case).
	select {
	case <-srv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("background serve goroutine never exited on the accept failure")
	}
	if err := srv.Close(); err == nil || !errors.Is(err, errAcceptBoom) {
		t.Fatalf("Close after background serve failure = %v, want wrapped %v", err, errAcceptBoom)
	}
}

// TestServerTimeouts: every server bounds how long a client may take
// to send its request headers and how long an idle connection stays.
func TestServerTimeouts(t *testing.T) {
	ln := &blockingListener{addr: strAddr("timeouts:0"), closed: make(chan struct{})}
	srv := NewServer(ln, http.NewServeMux())
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.srv.IdleTimeout <= 0 || srv.srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.srv.IdleTimeout, idleTimeout)
	}
}

// TestURLOnCustomListener: URL must not assume *net.TCPAddr — a custom
// listener falls back to string-splitting its Addr, and an address that
// does not split still yields a usable prefix.
func TestURLOnCustomListener(t *testing.T) {
	cases := []struct {
		addr string
		want string
	}{
		{"example.test:8080", "http://example.test:8080"},
		{"[::]:9090", "http://127.0.0.1:9090"},
		{"pipe", "http://pipe"},
	}
	for _, c := range cases {
		ln := &blockingListener{addr: strAddr(c.addr), closed: make(chan struct{})}
		srv := NewServer(ln, http.NewServeMux())
		if got := srv.URL(); got != c.want {
			t.Errorf("URL() on custom listener %q = %q, want %q", c.addr, got, c.want)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("Close on custom listener %q: %v", c.addr, err)
		}
	}
}

// TestVersionEndpoint: /v1/version serves the binary's build identity
// as JSON — module path, version and toolchain from ReadBuildInfo.
func TestVersionEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, hdr := get(t, srv.URL()+"/v1/version")
	if code != http.StatusOK {
		t.Fatalf("/v1/version status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/version content-type %q", ct)
	}
	var v struct {
		Module  string `json:"module"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/v1/version is not JSON: %v\n%s", err, body)
	}
	if v.Module != "rmarace" {
		t.Errorf("module = %q, want rmarace", v.Module)
	}
	if v.Version == "" || v.Go == "" {
		t.Errorf("missing build fields: %+v", v)
	}
	// The cached identity is what /healthz prints too.
	if b := Build(); b.Module != v.Module || b.Version != v.Version {
		t.Errorf("Build() = %+v disagrees with endpoint %+v", b, v)
	}
}
