// Package rma is the instrumentation layer of the reproduction: the
// analogue of RMA-Analyzer's PMPI interposition plus LLVM pass (§5.1).
// It wraps the simulated MPI runtime with instrumented windows, buffers
// and one-sided operations, and feeds every observed memory access to
// the analyzer selected for the run:
//
//   - every Put/Get produces an origin-side access analysed locally and
//     a target-side access sent to the target as a notification message,
//     processed by a per-window receiver goroutine (the paper's "for
//     each window, a thread is created to receive all the MPI_Send");
//   - local loads and stores on instrumented buffers are analysed
//     against every window with an open epoch on the issuing rank;
//   - at MPI_Win_unlock_all all ranks reduce their per-target remote
//     access counts, wait for the pending notifications, and complete
//     the epoch.
//
// A static alias filter models the LLVM alias analysis: the local
// accesses of buffers allocated Untracked are not instrumented, except
// under the MUST-RMA simulator, whose ThreadSanitizer still pays for
// them as Filtered events.
//
// Beyond the paper's passive-target lock_all/unlock_all epochs, the
// layer implements the full MPI-RMA synchronisation surface: fence
// phases, per-target exclusive/shared locks with unlock-release
// ordering, general active target synchronisation (PSCW), accumulate
// operations with datatype-level atomicity, vector datatypes and
// window destruction. Each is documented at its definition and marked
// as an extension.
package rma

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"io"

	"rmarace/internal/core"
	"rmarace/internal/depot"
	"rmarace/internal/detector"
	"rmarace/internal/mpi"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
	"rmarace/internal/obs/telemetry"
	"rmarace/internal/store"
)

// Config selects the analysis method and its variations for a session.
type Config struct {
	Method detector.Method
	// UnsafeFlushClear turns MPI_Win_flush into a BST clear for the
	// calling rank (the §6(2) ablation). Only meaningful for
	// OurContribution.
	UnsafeFlushClear bool
	// DisableAliasFilter instruments the local accesses of Untracked
	// buffers under every method, modelling a build without the LLVM
	// alias analysis.
	DisableAliasFilter bool
	// Store selects the storage backend the contribution analyzer runs
	// Algorithm 1 over ("avl", "legacy", "shadow", "strided"; package
	// internal/store). Empty means the default "avl" store, the B+tree;
	// "strided" selects the §6(3) regular-section extension, which
	// compresses constant-stride accesses plain merging cannot coalesce.
	// Only meaningful for OurContribution.
	Store string
	// NotifBatch bounds how many consecutive target-side notifications
	// to the same target coalesce into one channel message
	// (DefaultNotifBatch when zero; 1 disables batching). Batches are
	// always flushed before any synchronisation that publishes or
	// drains the access counts, so detection semantics do not depend on
	// the setting.
	NotifBatch int
	// Recorder receives the session's metrics (package internal/obs):
	// per-rank received/overflow counts, queue depths, epoch and lock
	// latencies, store traffic. Nil disables recording; every
	// instrumented hot path then costs one cached-bool branch and zero
	// allocations, so verdicts and performance match an un-instrumented
	// run.
	Recorder obs.Recorder
	// CaptureStacks makes every instrumented access carry its call
	// stack into race reports (Access.StackID, resolved against the
	// process-wide stack depot — each unique call site is rendered and
	// stored once). Off by default: the capture still walks the stack
	// per access, so it is reserved for diagnosis runs.
	CaptureStacks bool
	// TelemetryAddr, when non-empty, starts an HTTP telemetry server on
	// the address (package internal/obs/telemetry): Prometheus /metrics
	// from the session's registry, a live /report snapshot, /healthz
	// and pprof. A Registry is attached automatically when Recorder is
	// unset. Use ":0" to let the OS pick a port (Session.Telemetry).
	TelemetryAddr string
	// Spans enables causal span tracing (package internal/obs/span):
	// epochs, one-sided operations, flushes and notification batches are
	// recorded into per-rank ring buffers of span.DefaultDepth records
	// and exported as Chrome trace-event JSON by Session.WriteSpans. Off
	// by default; the disabled path costs one cached-bool branch per
	// site.
	Spans bool
	// FlightLog, when positive, keeps a flight recorder of the last
	// FlightLog accesses and synchronisations per (rank, window); a
	// detected race then carries the owner's snapshot
	// (detector.Race.FlightLog, rendered by `rmarace postmortem`).
	FlightLog int
}

// Session owns the analysis state of one simulated job: one analyzer
// per (rank, window), the notification plumbing, timing and statistics.
type Session struct {
	cfg   Config
	world *mpi.World
	must  *detector.MustShared

	mu     sync.Mutex
	wins   map[string]*winGlobal
	closed chan struct{}

	epochNanos []int64 // per-rank cumulative time inside epochs (atomic)

	// rec is the metrics sink (never nil: obs.Disabled when the config
	// leaves it unset); recOn caches rec.Enabled().
	rec   obs.Recorder
	recOn bool
	// spans is the causal span tracer (nil when Config.Spans is off;
	// the nil tracer is inert).
	spans *span.Tracer
	// tel is the telemetry server when Config.TelemetryAddr is set;
	// telErr holds the listen error when starting it failed.
	tel    *telemetry.Server
	telErr error

	race atomic.Pointer[detector.Race]
}

// NewSession creates the analysis session for world under cfg.
func NewSession(world *mpi.World, cfg Config) *Session {
	s := &Session{
		cfg:        cfg,
		world:      world,
		wins:       make(map[string]*winGlobal),
		closed:     make(chan struct{}),
		epochNanos: make([]int64, world.Size()),
		rec:        obs.OrDisabled(cfg.Recorder),
	}
	s.recOn = s.rec.Enabled()
	if cfg.Method == detector.MustRMAMethod {
		s.must = detector.NewMustShared(world.Size())
	}
	if cfg.Spans {
		s.spans = span.NewTracer(world.Size(), span.DefaultDepth)
	}
	if cfg.TelemetryAddr != "" {
		// A telemetry server without a registry would scrape empty, so
		// attach one when the config left the recorder unset.
		reg, ok := s.rec.(*obs.Registry)
		if !ok {
			reg = obs.NewRegistry()
			s.rec = reg
			s.recOn = true
		}
		s.tel, s.telErr = telemetry.Serve(cfg.TelemetryAddr, telemetry.Sources{
			Registry: reg,
			Report:   func() *obs.RunReport { return s.Report("run") },
		})
	}
	return s
}

// Telemetry returns the session's running telemetry server (nil when
// Config.TelemetryAddr was empty) and the error starting it, if any.
func (s *Session) Telemetry() (*telemetry.Server, error) { return s.tel, s.telErr }

// Spans returns the session's causal span tracer; nil (the inert
// tracer) unless Config.Spans enabled tracing.
func (s *Session) Spans() *span.Tracer { return s.spans }

// WriteSpans exports the session's recorded spans as Chrome
// trace-event JSON, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing. It errors when the session ran without Spans.
func (s *Session) WriteSpans(w io.Writer) error {
	if s.spans == nil {
		return fmt.Errorf("rma: session ran without span tracing (Config.Spans)")
	}
	return s.spans.WriteChromeTrace(w)
}

// Recorder returns the session's metrics sink (obs.Disabled when the
// config left it unset).
func (s *Session) Recorder() obs.Recorder { return s.rec }

// Method returns the session's analysis method.
func (s *Session) Method() detector.Method { return s.cfg.Method }

// newAnalyzer builds the per-(rank, window) analyzer for the configured
// method.
func (s *Session) newAnalyzer(rank int) detector.Analyzer {
	switch s.cfg.Method {
	case detector.Baseline:
		return detector.NewBaseline()
	case detector.RMAAnalyzer:
		return detector.NewLegacy()
	case detector.MustRMAMethod:
		return detector.NewMustRMA(s.must, rank)
	case detector.OurContribution:
		opts := []core.Option{core.WithOwner(rank)}
		if s.cfg.UnsafeFlushClear {
			opts = append(opts, core.WithUnsafeFlushClear())
		}
		if s.cfg.Store != "" {
			st, err := store.New(s.cfg.Store)
			if err != nil {
				panic(fmt.Sprintf("rma: %v", err))
			}
			opts = append(opts, core.WithStore(st))
		}
		if s.recOn {
			opts = append(opts, core.WithRecorder(s.rec, rank))
		}
		return core.New(opts...)
	}
	panic(fmt.Sprintf("rma: unknown method %v", s.cfg.Method))
}

// abort records the first race and aborts the world, like the
// MPI_Abort call in the paper's error path.
func (s *Session) abort(r *detector.Race) {
	if s.race.CompareAndSwap(nil, r) {
		s.world.Abort(r)
	}
}

// Race returns the first detected race, or nil.
func (s *Session) Race() *detector.Race { return s.race.Load() }

// recordEpoch credits one completed epoch's duration to rank: the
// cumulative Fig. 10 counter always, the EpochNanos latency histogram
// when recording. Every epoch-closing synchronisation goes through it —
// UnlockAll, PSCW Complete (access side) and Wait (exposure side) — so
// the accounting no longer undercounts active-target epochs.
func (s *Session) recordEpoch(rank int, d time.Duration) {
	atomic.AddInt64(&s.epochNanos[rank], int64(d))
	if s.recOn {
		s.rec.Observe(obs.EpochNanos, rank, int64(d))
	}
}

// stackID captures the call stack of an instrumented access when the
// session captures stacks (Config.CaptureStacks), zero otherwise. The
// pcs are interned in the process-wide stack depot, so each unique call
// site is rendered exactly once and the access carries a 4-byte id.
// The skip count drops runtime.Callers and stackID itself; the
// instrumentation wrappers above remain visible, which is what a
// PMPI-based tool's backtraces look like too.
func (s *Session) stackID() depot.ID {
	if !s.cfg.CaptureStacks {
		return 0
	}
	var pcs [depot.MaxDepth]uintptr
	n := runtime.Callers(2, pcs[:])
	return depot.Capture(pcs[:n])
}

// EpochTime returns the cumulative wall-clock time all ranks spent
// inside epochs (the metric of Fig. 10) and the per-rank breakdown.
func (s *Session) EpochTime() (total time.Duration, perRank []time.Duration) {
	perRank = make([]time.Duration, len(s.epochNanos))
	for i := range s.epochNanos {
		d := time.Duration(atomic.LoadInt64(&s.epochNanos[i]))
		perRank[i] = d
		total += d
	}
	return total, perRank
}

// WindowStats describes one window's analysis footprint.
type WindowStats struct {
	Name string
	// PerRankMaxNodes is each rank's high-water BST node count (shadow
	// cells for MUST-RMA).
	PerRankMaxNodes []int
	// TotalMaxNodes sums PerRankMaxNodes — the "number of nodes in the
	// BST" aggregate of §5.3 and Table 4.
	TotalMaxNodes int
	// Accesses sums processed accesses over ranks.
	Accesses uint64
	// Overflows counts notification sends that found a rank's channel
	// full and had to block (engine backpressure; nothing is dropped).
	Overflows int64
	// PerRankReceived is each rank's processed-notification count (the
	// engine's quiescence counter, cumulative over the window's life).
	PerRankReceived []int64
	// PerRankOverflows is the per-rank breakdown of Overflows.
	PerRankOverflows []int64
}

// Stats snapshots all windows' analysis statistics.
func (s *Session) Stats() []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WindowStats, 0, len(s.wins))
	for _, g := range s.wins {
		ws := WindowStats{
			Name:             g.name,
			PerRankMaxNodes:  make([]int, g.ranks),
			PerRankReceived:  make([]int64, g.ranks),
			PerRankOverflows: make([]int64, g.ranks),
		}
		for r := 0; r < g.ranks; r++ {
			ws.PerRankReceived[r] = g.eng.Received(r)
			ws.PerRankOverflows[r] = g.eng.Overflows(r)
			g.eng.WithAnalyzer(r, func(a detector.Analyzer) {
				ws.PerRankMaxNodes[r] = a.MaxNodes()
				ws.Accesses += a.Accesses()
			})
			ws.TotalMaxNodes += ws.PerRankMaxNodes[r]
		}
		ws.Overflows = g.eng.TotalOverflows()
		out = append(out, ws)
	}
	return out
}

// TotalMaxNodes sums the node high-water marks over every window and
// rank of the session.
func (s *Session) TotalMaxNodes() int {
	total := 0
	for _, ws := range s.Stats() {
		total += ws.TotalMaxNodes
	}
	return total
}
