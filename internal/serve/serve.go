// Package serve is the detection-as-a-service layer: a long-lived HTTP
// daemon that multiplexes many concurrent trace-analysis sessions over
// one resident detector. Where `rmarace replay` analyses one trace per
// process, the daemon accepts trace uploads and chunked/streamed trace
// records over HTTP — JSON Lines or the RMTB binary format, sniffed
// from the leading bytes — and runs each session through the
// bounded-memory streaming replay (trace.ReplayStream) with the PR 7
// memory policies, so N jobs × M ranks funnel into one process whose
// resident state tracks the hot sessions, not the total traffic.
//
// Concurrency is bounded twice. Admission control caps the in-flight
// session count daemon-wide and per tenant (the `X-Tenant` request
// header names the tenant); a session over either cap is turned away
// with 429 before its body is read, and the rejection is visible in
// the serve_quota_rejects Prometheus counter. Admitted sessions then
// share a bounded worker pool: at most Workers replays run at once,
// the rest queue on the pool semaphore (serve_queue_wait_nanos is the
// backpressure signal). Per-session ingest quotas — max bytes, max
// records — abort an over-limit stream with 413 mid-flight.
//
// Endpoints:
//
//	POST /v1/analyze                 stream a trace body, get a verdict
//	GET  /v1/sessions                list retained sessions
//	GET  /v1/sessions/{id}           one session's verdict
//	GET  /v1/sessions/{id}/report    rmarace/run-report/v1 session report
//	GET  /v1/sessions/{id}/postmortem  flight-recorder race rendering
//	GET  /v1/sessions/{id}/events    live progress stream (SSE)
//	GET  /v1/sessions/{id}/spans     Chrome-trace span timeline (?spans=1)
//	GET  /v1/tenants                 tenant name -> metric label ids
//	/metrics /healthz /report /v1/version /debug/pprof  (package telemetry)
//
// Observability is session-scoped throughout: Config.Logger receives
// one JSON log line per lifecycle event (admission reject, session
// start, failure, verdict), and every line inside a session goes
// through one logger carrying the tenant and session id; the events
// endpoint streams the same session's live progress; the
// serve_stage_*_nanos histograms cut the same wall time by pipeline
// stage. One session id correlates all of them.
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
	"rmarace/internal/obs/telemetry"
	"rmarace/internal/rma"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// SessionOpts is one session's analysis configuration, set per request
// through query parameters (method, store, shards, batch, evict,
// compact, flight, spans, spandepth).
type SessionOpts struct {
	Method  detector.Method
	Store   string
	Shards  int
	Batch   int
	Evict   int
	Compact bool
	Flight  int
	// Spans opts the session into per-rank span capture (?spans=1);
	// the timeline is served as Chrome-trace JSON on the session's
	// /spans endpoint. SpanDepth bounds each rank's span ring
	// (?spandepth=N, default DefaultSpanDepth).
	Spans     bool
	SpanDepth int
}

// Config parameterises the daemon.
type Config struct {
	// Workers bounds concurrently running replays (the worker pool).
	// Defaults to GOMAXPROCS, floored at 2 so a queued session can
	// always overlap a running one.
	Workers int
	// MaxSessions is the daemon-wide admission cap on in-flight
	// sessions (running + queued). Defaults to 8× Workers.
	MaxSessions int
	// TenantSessions caps one tenant's in-flight sessions. Defaults to
	// MaxSessions (i.e. no per-tenant carve-out).
	TenantSessions int
	// MaxSessionBytes aborts a session whose ingest exceeds this many
	// body bytes (413). 0 means unlimited.
	MaxSessionBytes int64
	// MaxSessionRecords aborts a session streaming more than this many
	// trace records (413). 0 means unlimited.
	MaxSessionRecords int64
	// Retain is how many completed sessions keep their verdict, report
	// and flight log available over the session API. Default 256.
	Retain int
	// Registry is the daemon-wide metrics registry behind /metrics;
	// created when nil.
	Registry *obs.Registry
	// Logger receives the daemon's structured log events (rmarace serve
	// writes JSON lines). Nil discards everything — the default, so an
	// unconfigured daemon pays one branch per would-be line.
	Logger *slog.Logger
	// RetryAfter is the backoff hint a 429 admission reject carries in
	// its Retry-After header (rounded up to whole seconds). Default 1s.
	RetryAfter time.Duration
	// EventPoll is the progress-probe polling cadence of the SSE event
	// stream. Default 100ms; tests lower it.
	EventPoll time.Duration
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8 * c.Workers
	}
	if c.TenantSessions <= 0 {
		c.TenantSessions = c.MaxSessions
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.EventPoll <= 0 {
		c.EventPoll = 100 * time.Millisecond
	}
	return c
}

// Daemon is the resident multi-tenant analysis service. It implements
// http.Handler; Start binds it to a listener with the telemetry
// package's server lifecycle.
type Daemon struct {
	cfg   Config
	reg   *obs.Registry
	log   *slog.Logger
	slots chan struct{} // worker-pool semaphore
	mux   *http.ServeMux

	mu       sync.Mutex
	inflight int
	tenants  map[string]*tenantState
	names    []string // tenant names by interned id
	sessions map[string]*Session
	done     []string // completed session ids, oldest first (retention)
	seq      uint64
}

// discardLog is the logger of a daemon configured without one: it
// writes nowhere and every level is disabled, so a call site pays one
// branch. (slog.DiscardHandler needs Go 1.24; the module declares
// go 1.22.)
var discardLog = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// tenantState is one tenant's interned metric label and admission
// bookkeeping.
type tenantState struct {
	id       int
	inflight int
}

// NewDaemon builds a daemon ready to serve.
func NewDaemon(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		reg:      cfg.Registry,
		log:      cmp.Or(cfg.Logger, discardLog),
		slots:    make(chan struct{}, cfg.Workers),
		tenants:  make(map[string]*tenantState),
		sessions: make(map[string]*Session),
	}
	d.mux = http.NewServeMux()
	d.mux.HandleFunc("POST /v1/analyze", d.handleAnalyze)
	d.mux.HandleFunc("GET /v1/sessions", d.handleSessions)
	d.mux.HandleFunc("GET /v1/sessions/{id}", d.handleSession)
	d.mux.HandleFunc("GET /v1/sessions/{id}/report", d.handleReport)
	d.mux.HandleFunc("GET /v1/sessions/{id}/postmortem", d.handlePostmortem)
	d.mux.HandleFunc("GET /v1/sessions/{id}/events", d.handleEvents)
	d.mux.HandleFunc("GET /v1/sessions/{id}/spans", d.handleSpans)
	d.mux.HandleFunc("GET /v1/tenants", d.handleTenants)
	telemetry.Register(d.mux, telemetry.Sources{
		Registry: d.reg,
		Snapshot: d.metricsSnapshot,
		Report: func() *obs.RunReport {
			return &obs.RunReport{Schema: obs.ReportSchema, Source: "serve", Metrics: d.metricsSnapshot()}
		},
	})
	return d
}

// metricsSnapshot is the daemon's /metrics (and /report) source: the
// registry snapshot with every tenant-dimension series annotated with
// the tenant's name, so the exposition reads tenant="acme" rather than
// an interned id. Names are request-supplied (X-Tenant), so the
// Prometheus renderer escapes them.
func (d *Daemon) metricsSnapshot() []obs.MetricSnapshot {
	snaps := d.reg.Snapshot()
	d.mu.Lock()
	names := append([]string(nil), d.names...)
	d.mu.Unlock()
	for i := range snaps {
		if snaps[i].LabelDim != "tenant" {
			continue
		}
		for j := range snaps[i].Series {
			if id := snaps[i].Series[j].Label; id >= 0 && id < len(names) {
				snaps[i].Series[j].LabelName = names[id]
			}
		}
	}
	return snaps
}

// Registry returns the daemon-wide metrics registry (the /metrics
// source), so embedding callers can read the serve_* counters.
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// ServeHTTP implements http.Handler.
func (d *Daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.mux.ServeHTTP(w, r) }

// Start binds the daemon to addr and serves until the returned
// server's Close. It reuses the telemetry server lifecycle, so a
// background accept failure surfaces from Close rather than killing
// the daemon's caller.
func Start(addr string, cfg Config) (*Daemon, *telemetry.Server, error) {
	d := NewDaemon(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return d, telemetry.NewServer(ln, d), nil
}

// tenantOf extracts the request's tenant: the X-Tenant header, the
// tenant query parameter, or "anonymous".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// tenantLocked interns a tenant name, assigning metric label ids in
// arrival order. Caller holds d.mu.
func (d *Daemon) tenantLocked(name string) *tenantState {
	ts, ok := d.tenants[name]
	if !ok {
		ts = &tenantState{id: len(d.names)}
		d.tenants[name] = ts
		d.names = append(d.names, name)
	}
	return ts
}

// parseOpts reads a session's configuration from the request's query
// parameters; a session that sets none runs the contribution unsharded.
func parseOpts(r *http.Request) (SessionOpts, error) {
	o := SessionOpts{Method: detector.OurContribution, Shards: 1}
	q := r.URL.Query()
	if v := q.Get("method"); v != "" {
		m, err := detector.MethodByName(v)
		if err != nil {
			return o, err
		}
		o.Method = m
	}
	if v := q.Get("store"); v != "" {
		o.Store = v
	}
	for _, p := range []struct {
		key string
		dst *int
		min int
	}{
		{"shards", &o.Shards, 1},
		{"batch", &o.Batch, 0},
		{"evict", &o.Evict, 0},
		{"flight", &o.Flight, 0},
		{"spandepth", &o.SpanDepth, 1},
	} {
		v := q.Get(p.key)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < p.min {
			return o, fmt.Errorf("serve: bad %s parameter %q", p.key, v)
		}
		*p.dst = n
	}
	for _, p := range []struct {
		key string
		dst *bool
	}{
		{"compact", &o.Compact},
		{"spans", &o.Spans},
	} {
		v := q.Get(p.key)
		if v == "" {
			continue
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return o, fmt.Errorf("serve: bad %s parameter %q", p.key, v)
		}
		*p.dst = b
	}
	return o, nil
}

// admit reserves an in-flight slot for tenant, or reports which quota
// refused it. It runs before a single body byte is read.
func (d *Daemon) admit(tenant string) (*tenantState, string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := d.tenantLocked(tenant)
	if d.inflight >= d.cfg.MaxSessions {
		d.reg.Add(obs.ServeQuotaRejects, ts.id, 1)
		return ts, fmt.Sprintf("daemon at capacity (%d in-flight sessions)", d.inflight), false
	}
	if ts.inflight >= d.cfg.TenantSessions {
		d.reg.Add(obs.ServeQuotaRejects, ts.id, 1)
		return ts, fmt.Sprintf("tenant %q at quota (%d in-flight sessions)", tenant, ts.inflight), false
	}
	d.inflight++
	ts.inflight++
	d.reg.Add(obs.ServeSessions, ts.id, 1)
	d.reg.Add(obs.ServeActiveSessions, ts.id, 1)
	return ts, "", true
}

// release returns an admitted session's slot.
func (d *Daemon) release(ts *tenantState) {
	d.mu.Lock()
	d.inflight--
	ts.inflight--
	d.mu.Unlock()
	d.reg.Add(obs.ServeActiveSessions, ts.id, -1)
}

// register files a new session under the next id.
func (d *Daemon) register(s *Session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	s.ID = fmt.Sprintf("s-%06d", d.seq)
	d.sessions[s.ID] = s
}

// retire moves a finished session into the bounded retention window,
// evicting the oldest completed session beyond Retain.
func (d *Daemon) retire(s *Session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done = append(d.done, s.ID)
	for len(d.done) > d.cfg.Retain {
		delete(d.sessions, d.done[0])
		d.done = d.done[1:]
	}
}

// retryAfterSeconds renders the 429 backoff hint: whole seconds,
// rounded up, floored at 1 (Retry-After's grammar has no fractions).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleAnalyze is the ingest path: admission, worker-pool slot, then
// one streaming replay over the request body.
func (d *Daemon) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	opts, err := parseOpts(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ts, reason, ok := d.admit(tenant)
	if !ok {
		d.log.Warn("admission rejected", "tenant", tenant, "status", http.StatusTooManyRequests, "reason", reason)
		w.Header().Set("Retry-After", retryAfterSeconds(d.cfg.RetryAfter))
		httpError(w, http.StatusTooManyRequests, reason)
		return
	}
	defer d.release(ts)

	// Register before queueing for a worker slot, so a queued session
	// is already discoverable (GET /v1/sessions) and watchable (its
	// events stream shows stage "queued" while it waits).
	s := newSession(tenant, opts)
	d.register(s)
	log := d.log.With("tenant", tenant, "session", s.ID)
	log.Info("session admitted", "method", opts.Method.String())

	// The pool semaphore is the backpressure stage: admitted sessions
	// queue here while Workers replays are already running.
	waitStart := time.Now()
	d.slots <- struct{}{}
	defer func() { <-d.slots }()
	wait := time.Since(waitStart)
	if wait > 0 {
		d.reg.Add(obs.ServeQueueWaitNanos, ts.id, wait.Nanoseconds())
	}

	status, verdict := d.runSession(log, s, ts, r.Body, wait)
	d.retire(s)
	log.Info("session finished",
		"state", verdict.State, "status", status, "events", verdict.Events,
		"epochs", verdict.Epochs, "race", verdict.Race != nil,
		"elapsed_ns", verdict.ElapsedNs)
	w.Header().Set("X-Session", s.ID)
	writeJSON(w, status, verdict)
}

// runSession streams one trace body through the shared replay loop and
// returns the HTTP status plus the verdict document. The session is
// updated in place and logs through log, which carries its identity.
// queueWait is how long the session sat on the worker-pool semaphore
// (the queue stage of the latency accounting).
func (d *Daemon) runSession(log *slog.Logger, s *Session, ts *tenantState, body io.Reader, queueWait time.Duration) (int, *Verdict) {
	fail := func(status int, err error) (int, *Verdict) {
		s.fail(err)
		log.Warn("session failed", "status", status, "error", err.Error())
		return status, s.Verdict()
	}
	lim := &limitedBody{r: body, remaining: d.cfg.MaxSessionBytes, unlimited: d.cfg.MaxSessionBytes <= 0}
	src, format, err := tracebin.Open(lim)
	if err != nil {
		if errors.Is(err, errByteQuota) {
			d.reg.Add(obs.ServeLimitAborts, ts.id, 1)
			return fail(http.StatusRequestEntityTooLarge, err)
		}
		return fail(http.StatusBadRequest, fmt.Errorf("opening trace stream: %w", err))
	}
	s.setFormat(format)
	head := src.Head()

	sreg := obs.NewRegistry()
	// Stage accounting: the queue stage is measured by the handler; the
	// ingest and drain stages come from the progress probe's stage-entry
	// timestamps after the replay; report build is timed below. Session
	// registry and daemon registry both see the histograms, so they show
	// up in the per-session report and aggregate on /metrics.
	stage := func(m obs.Metric, ns int64) {
		if ns <= 0 {
			return
		}
		sreg.Observe(m, ts.id, ns)
		d.reg.Observe(m, ts.id, ns)
	}
	stage(obs.ServeStageQueueNanos, queueWait.Nanoseconds())

	var spans *span.Tracer
	if s.Opts.Spans {
		if spans, err = NewSpanTracer(head.Ranks, s.Opts.SpanDepth); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		s.setSpans(spans)
	}

	factory, shared, err := NewAnalyzerFactory(s.Opts.Method, head.Ranks, s.Opts.Store, s.Opts.Shards, sreg)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	res, err := trace.ReplayStream(
		&limitSource{Source: src, max: d.cfg.MaxSessionRecords},
		factory,
		trace.ReplayOpts{
			Batch: s.Opts.Batch, EvictCold: s.Opts.Evict, Compact: s.Opts.Compact,
			FlightN: s.Opts.Flight,
			Spans:   spans,
			// Ingest metrics tee into the session's registry (the /report
			// source) and the daemon-wide registry (the /metrics source),
			// so a scrape sees aggregate traffic live.
			Recorder: teeRecorder{sreg, d.reg},
			Progress: s.prog,
			Log:      log,
		})
	drainedAt := time.Now()
	if ingest := s.prog.StageEntryNanos(obs.StageDraining) - s.prog.StageEntryNanos(obs.StageIngesting); ingest > 0 {
		stage(obs.ServeStageIngestNanos, ingest)
	}
	if enter := s.prog.StageEntryNanos(obs.StageDraining); enter > 0 {
		stage(obs.ServeStageDrainNanos, drainedAt.Sub(s.Started).Nanoseconds()-enter)
	}
	if err != nil {
		if errors.Is(err, errByteQuota) || errors.Is(err, errRecordQuota) {
			d.reg.Add(obs.ServeLimitAborts, ts.id, 1)
			return fail(http.StatusRequestEntityTooLarge, err)
		}
		return fail(http.StatusBadRequest, err)
	}
	rma.RecordClockStats(sreg, shared)
	if res.Race != nil {
		d.reg.Add(obs.ServeRaces, ts.id, 1)
	}
	rep := ReplayReport("serve", head, s.Opts.Method, res, sreg)
	// The report can't time its own construction, so the report stage
	// lands in the daemon registry only.
	d.reg.Observe(obs.ServeStageReportNanos, ts.id, int64(time.Since(drainedAt)))
	s.finish(head, res, rep)
	return http.StatusOK, s.Verdict()
}

// handleSessions lists retained sessions, newest first.
func (d *Daemon) handleSessions(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	list := make([]*Verdict, 0, len(d.sessions))
	for _, s := range d.sessions {
		list = append(list, s.Verdict())
	}
	d.mu.Unlock()
	sortVerdicts(list)
	writeJSON(w, http.StatusOK, list)
}

// session resolves the {id} path value.
func (d *Daemon) session(w http.ResponseWriter, r *http.Request) *Session {
	d.mu.Lock()
	s := d.sessions[r.PathValue("id")]
	d.mu.Unlock()
	if s == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q (retention keeps the last %d)", r.PathValue("id"), d.cfg.Retain))
	}
	return s
}

func (d *Daemon) handleSession(w http.ResponseWriter, r *http.Request) {
	if s := d.session(w, r); s != nil {
		writeJSON(w, http.StatusOK, s.Verdict())
	}
}

func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	s := d.session(w, r)
	if s == nil {
		return
	}
	rep := s.Report()
	if rep == nil {
		// Same contract as the telemetry /report handler: no snapshot
		// available (still streaming, or the session failed) is 503.
		httpError(w, http.StatusServiceUnavailable, "session report unavailable")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rep.WriteJSON(w)
}

func (d *Daemon) handlePostmortem(w http.ResponseWriter, r *http.Request) {
	s := d.session(w, r)
	if s == nil {
		return
	}
	race := s.Race()
	if race == nil {
		httpError(w, http.StatusNotFound, "session detected no race")
		return
	}
	if len(race.FlightLog) == 0 {
		httpError(w, http.StatusNotFound, "race carries no flight recording (submit with ?flight=N)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rc := rma.RaceReport(race)
	fmt.Fprintf(w, "RACE: %s\n  window=%s owner=%d shard=%d\n", rc.Message, rc.Window, rc.Owner, rc.Shard)
	rc.WriteFlight(w)
}

// handleTenants reports the tenant-name -> metric-label mapping, so a
// Prometheus consumer can resolve the serve_* series' tenant ids.
func (d *Daemon) handleTenants(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	m := make(map[string]int, len(d.tenants))
	for name, ts := range d.tenants {
		m[name] = ts.id
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

// writeJSON writes one JSON document with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError answers a JSON error document (the API is JSON throughout,
// error paths included).
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// teeRecorder fans one recording stream into two registries: the
// session's (per-session report) and the daemon's (aggregate
// /metrics). Both ends are live, so a mid-session scrape of either
// sees traffic so far.
type teeRecorder struct {
	a, b obs.Recorder
}

func (t teeRecorder) Add(m obs.Metric, label int, delta int64) {
	t.a.Add(m, label, delta)
	t.b.Add(m, label, delta)
}
func (t teeRecorder) Set(m obs.Metric, label int, v int64) {
	t.a.Set(m, label, v)
	t.b.Set(m, label, v)
}
func (t teeRecorder) SetMax(m obs.Metric, label int, v int64) {
	t.a.SetMax(m, label, v)
	t.b.SetMax(m, label, v)
}
func (t teeRecorder) Observe(m obs.Metric, label int, v int64) {
	t.a.Observe(m, label, v)
	t.b.Observe(m, label, v)
}
func (t teeRecorder) Enabled() bool { return t.a.Enabled() || t.b.Enabled() }
