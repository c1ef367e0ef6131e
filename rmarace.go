// Package rmarace is a Go reproduction of "Rethinking Data Race
// Detection in MPI-RMA Programs" (Vinayagame et al., Correctness'23 @
// SC-W 2023): an on-the-fly data-race detector for one-sided (MPI-RMA)
// communication built on an interval BST with a fragmentation+merging
// insertion algorithm, together with the baselines it is evaluated
// against and a simulated MPI runtime to run them on.
//
// # Quick start
//
// Write the SPMD program against the instrumented runtime and run it
// under a detection method:
//
//	report, err := rmarace.Run(2, rmarace.OurContribution, func(p *rmarace.Proc) error {
//		win, err := p.WinCreate("X", 64)
//		if err != nil {
//			return err
//		}
//		if err := win.LockAll(); err != nil {
//			return err
//		}
//		if p.Rank() == 0 {
//			buf := p.Alloc("buf", 32)
//			// MPI_Put(buf[2..11]) ... buf[7] = 1234  -> data race
//			if err := win.Put(1, 0, buf, 2, 10, rmarace.Debug{File: "main.c", Line: 3}); err != nil {
//				return err
//			}
//			if err := buf.Store(7, []byte{0x12}, rmarace.Debug{File: "main.c", Line: 4}); err != nil {
//				return err
//			}
//		}
//		return win.UnlockAll()
//	})
//	if report.Race != nil {
//		fmt.Println(report.Race.Message())
//	}
//
// # Architecture
//
// The detection algorithms live in internal packages re-exported here:
// the paper's contribution (internal/core, Algorithm 1 over the B+tree
// of disjoint accesses of internal/itree), the legacy RMA-Analyzer
// (internal/detector.Legacy over internal/legacybst), a MUST-RMA
// simulator (vector clocks + shadow memory) and a no-op baseline. The
// simulated MPI runtime is internal/mpi and the PMPI-style
// instrumentation layer internal/rma. Package-level documentation of
// every internal package describes its role; DESIGN.md maps the paper's
// systems and experiments onto them.
package rmarace

import (
	"io"
	"time"

	"rmarace/internal/access"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/mpi"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
	"rmarace/internal/rma"
)

// Method selects the analysis compared in the paper's evaluation.
type Method = detector.Method

// The four methods, in the paper's presentation order.
const (
	Baseline        = detector.Baseline
	RMAAnalyzer     = detector.RMAAnalyzer
	MustRMA         = detector.MustRMAMethod
	OurContribution = detector.OurContribution
)

// Methods lists all four methods.
func Methods() []Method { return detector.Methods() }

// Race is a detected data race; Message formats the paper's Fig. 9
// report.
type Race = detector.Race

// Event is one instrumented access, for users driving an Analyzer
// directly (e.g. replaying their own traces).
type Event = detector.Event

// Analyzer is the per-(process, window) detection interface.
type Analyzer = detector.Analyzer

// NewAnalyzer returns the paper's contribution as a standalone
// analyzer: the interval BST with fragmentation and merging.
func NewAnalyzer() *core.Analyzer { return core.New() }

// NewLegacyAnalyzer returns the original RMA-Analyzer emulation.
func NewLegacyAnalyzer() Analyzer { return detector.NewLegacy() }

// Debug locates an access in the instrumented program (file:line).
type Debug = access.Debug

// World is a simulated MPI job; Proc a rank's instrumented handle;
// Buffer an instrumented memory region; Win an MPI-RMA window.
type (
	World   = mpi.World
	Proc    = rma.Proc
	Buffer  = rma.Buffer
	Win     = rma.Win
	Session = rma.Session
	Config  = rma.Config
)

// Buffer allocation options.
var (
	// OnStack marks a buffer as stack-allocated (invisible to the
	// MUST-RMA simulator's local-access instrumentation).
	OnStack = rma.OnStack
	// Untracked marks a buffer as alias-filtered (skipped by the
	// tree-based analyzers, still analysed by MUST-RMA).
	Untracked = rma.Untracked
)

// AccumOp is the reduction operation of the accumulate extension
// (MPI_Accumulate / MPI_Fetch_and_op); same-operation accumulates never
// race with each other.
type AccumOp = access.AccumOp

// Accumulate reduction operations.
const (
	AccumSum     = access.AccumSum
	AccumReplace = access.AccumReplace
	AccumMax     = access.AccumMax
	AccumMin     = access.AccumMin
	AccumBand    = access.AccumBand
)

// MPI_Win_lock modes.
const (
	LockExclusive = rma.LockExclusive
	LockShared    = rma.LockShared
)

// Vector is the vector-datatype descriptor for PutVector/GetVector.
type Vector = rma.Vector

// Op is a collective reduction operator (Allreduce/Reduce).
type Op = mpi.Op

// Collective reduction operators.
const (
	OpSum = mpi.OpSum
	OpMax = mpi.OpMax
	OpMin = mpi.OpMin
)

// Observability surface (package internal/obs): a session configured
// with a Recorder records pipeline metrics; a *Registry recorder
// additionally yields the full metrics snapshot in the run report.
type (
	// Recorder is the metrics sink of Config.Recorder.
	Recorder = obs.Recorder
	// Registry is the concrete lock-free metrics registry.
	Registry = obs.Registry
	// RunReport is the structured run report
	// (schema "rmarace/run-report/v1").
	RunReport = obs.RunReport
)

// NewRegistry returns a fresh metrics registry to pass as
// Config.Recorder.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Live observability (PR 4): a session configured with
// Config.TelemetryAddr serves /metrics, /report, /healthz and
// /debug/pprof while it runs (Session.Telemetry returns the server);
// Config.Spans records causal spans exported with Session.WriteSpans;
// Config.FlightLog keeps a per-(rank, window) flight recorder whose
// snapshot rides on a detected Race.
type (
	// SpanTracer holds a traced run's per-rank span rings; export with
	// Session.WriteSpans or SpanTracer.WriteChromeTrace.
	SpanTracer = span.Tracer
	// FlightEntry is one flight-recorder event attached to Race.FlightLog.
	FlightEntry = detector.FlightEntry
)

// WriteFlight renders a race's flight-recorder snapshot as the human
// postmortem dump, marking every access that could be one side of the
// race — the library form of `rmarace postmortem`, through the same
// report-form renderer. A nil race marks nothing.
func WriteFlight(w io.Writer, entries []FlightEntry, race *Race) {
	var rc obs.RaceReport
	if race != nil {
		rc = rma.RaceReport(race)
	}
	rc.Flight = rma.FlightReport(entries)
	rc.WriteFlight(w)
}

// NewWorld creates a simulated MPI job of n ranks.
func NewWorld(n int) *World { return mpi.NewWorld(n) }

// NewSession attaches an analysis session to a world.
func NewSession(w *World, cfg Config) *Session { return rma.NewSession(w, cfg) }

// Report summarises an instrumented run.
type Report struct {
	// Race is the first detected data race, or nil for a clean run.
	Race *Race
	// EpochTime is the cumulative time all ranks spent inside epochs.
	EpochTime time.Duration
	// MaxNodes is the total BST high-water mark over all ranks and
	// windows.
	MaxNodes int
	// Run is the structured run report, built when the session was
	// configured with a Recorder (nil otherwise). With a *Registry
	// recorder it carries the full metrics snapshot.
	Run *RunReport
	// Err is the non-race error that ended the run, if any.
	Err error
}

// Run executes body once per rank under the given method and returns
// the run report. A detected race aborts the program (the simulated
// MPI_Abort) and is reported in Report.Race, not as an error.
func Run(ranks int, method Method, body func(*Proc) error) (Report, error) {
	return RunConfig(ranks, Config{Method: method}, body)
}

// RunConfig is Run with full session configuration.
func RunConfig(ranks int, cfg Config, body func(*Proc) error) (Report, error) {
	world := mpi.NewWorld(ranks)
	session := rma.NewSession(world, cfg)
	err := world.Run(func(mp *mpi.Proc) error { return body(session.Proc(mp)) })
	session.Close()

	var rep Report
	rep.Race = session.Race()
	rep.EpochTime, _ = session.EpochTime()
	rep.MaxNodes = session.TotalMaxNodes()
	if cfg.Recorder != nil {
		rep.Run = session.Report("run")
	}
	if rep.Race == nil && err != nil {
		rep.Err = err
		return rep, err
	}
	return rep, nil
}
