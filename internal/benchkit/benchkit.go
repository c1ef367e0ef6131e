// Package benchkit runs the paper-figure performance suite from a
// normal binary (the `rmarace bench` subcommand) by driving
// testing.Benchmark directly, and serialises the measurements — ns/op,
// allocs/op and the node-count metrics of Figure 10 and Table 4 — to
// JSON so successive PRs can diff BENCH_PR2.json-style snapshots
// without parsing `go test -bench` text output.
//
// The same stream generators back the package-level benchmarks in
// bench_test.go, so the CLI numbers and `go test -bench` numbers are
// measured on identical workloads.
package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/apps/cfdproxy"
	"rmarace/internal/apps/minivite"
	"rmarace/internal/core"
	"rmarace/internal/depot"
	"rmarace/internal/detector"
	"rmarace/internal/engine"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/rma"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full suite output written to BENCH_PR2.json.
type Report struct {
	Suite   string   `json:"suite"`
	Results []Result `json:"results"`
	// Runs carries structured run reports (the same
	// "rmarace/run-report/v1" schema as `rmarace replay -report`) from
	// fully instrumented application runs, so the benchmark snapshot
	// records the pipeline metrics alongside the timings.
	Runs []*obs.RunReport `json:"runs,omitempty"`
}

// Options scales the suite.
type Options struct {
	// Vertices is the MiniVite input size (Table 4); 0 selects a scaled
	// default that keeps the whole suite under a minute.
	Vertices int
	// Registry, when non-nil, is attached as the instrumented run's
	// metrics recorder instead of a private one — the hook that lets
	// `rmarace bench -telemetry` serve the suite's live /metrics.
	Registry *obs.Registry
	// SpanSink, when non-nil, receives the instrumented CFD-Proxy run's
	// causal spans as Chrome trace-event JSON (`rmarace bench -spans`).
	SpanSink io.Writer
	// Quick restricts the suite to the gated series — insert hot path,
	// notification throughput, clock memory, stack depot — skipping the
	// slower figure/table reproductions (the CI memory-bench step).
	Quick bool
}

// Suite runs every benchmark and collects the report.
func Suite(opts Options) Report {
	if opts.Vertices <= 0 {
		opts.Vertices = 16000
	}
	var out []Result
	out = append(out, insertResults()...)
	out = append(out, notificationResult())
	out = append(out, clockMemResults(256)...)
	out = append(out, depotResults()...)
	out = append(out, traceIngestResults(opts.Quick)...)
	out = append(out, serveSweepResults(opts.Quick)...)
	if opts.Quick {
		return Report{
			Suite:   "rmarace perf suite (quick: insert hot path, notification pipeline, clock memory, stack depot, trace ingest, serve sweep)",
			Results: out,
		}
	}
	out = append(out, figure10Results()...)
	out = append(out, table4Results(opts.Vertices)...)
	return Report{
		Suite:   "rmarace perf suite (insert hot path, notification pipeline, clock memory, stack depot, trace ingest, serve sweep, Figure 10, Table 4)",
		Results: out,
		Runs:    runReports(opts),
	}
}

// runReports executes one instrumented CFD-Proxy run under the
// contribution and returns its structured run report.
func runReports(opts Options) []*obs.RunReport {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg := cfdproxy.Config{Ranks: 8, Iters: 6, Points: 16, InteriorOps: 64}
	res, err := cfdproxy.RunOpts(cfg, rma.Config{
		Method:   detector.OurContribution,
		Recorder: reg,
		Spans:    opts.SpanSink != nil,
	})
	if err != nil || res.Report == nil {
		return nil
	}
	if opts.SpanSink != nil && res.Spans != nil {
		// A failed span export must not discard the suite's measurements;
		// the caller notices the truncated sink.
		_ = res.Spans.WriteChromeTrace(opts.SpanSink)
	}
	res.Report.Source = "bench"
	return []*obs.RunReport{res.Report}
}

// WriteJSON writes the report as indented JSON.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func result(name string, r testing.BenchmarkResult, metrics map[string]float64) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     metrics,
	}
}

// insertResults measures per-access analyzer cost (the zero-allocation
// hot path) on the two access patterns of the evaluation.
func insertResults() []Result {
	var out []Result
	for _, pat := range []struct {
		name   string
		stream []detector.Event
	}{
		{"adjacent", AdjacentStream(4096)},
		{"strided", StridedStream(4096)},
	} {
		pat := pat
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			z := core.New()
			for i := 0; i < b.N; i++ {
				if race := z.Access(pat.stream[i%len(pat.stream)]); race != nil {
					b.Fatal(race)
				}
				if i%len(pat.stream) == len(pat.stream)-1 {
					z.EpochEnd()
				}
			}
		})
		out = append(out, result("insert/ours/"+pat.name, r, nil))
	}
	return out
}

// notificationResult measures end-to-end engine throughput (one op =
// one analysed event): an adjacent stream notified in batches of 64 to
// one rank's receiver, which analyses it serially.
func notificationResult() Result {
	stream := AdjacentStream(1 << 14)
	var nodes float64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := engine.New(engine.Config{
			Ranks:       1,
			NewAnalyzer: func(int) detector.Analyzer { return core.New() },
		})
		e.StartReceiver(0)
		defer e.Close()
		b.ResetTimer()
		var sent int64
		const batch = 64
		for i := 0; i < b.N; {
			for off := 0; off < len(stream) && i < b.N; off += batch {
				end := off + batch
				if end > len(stream) {
					end = len(stream)
				}
				evs := append(e.GetEventBuf(), stream[off:end]...)
				if err := e.Notify(0, evs); err != nil {
					b.Fatal(err)
				}
				sent += int64(end - off)
				i += end - off
			}
			if err := e.WaitReceived(0, sent); err != nil {
				b.Fatal(err)
			}
			e.EpochEnd(0)
		}
		b.StopTimer()
		e.WithAnalyzer(0, func(a detector.Analyzer) { nodes = float64(a.MaxNodes()) })
	})
	return result("notification-throughput/batch64", r, map[string]float64{"max_nodes": nodes})
}

// clockMemWorkload drives one MUST-RMA clock workload at scale ranks:
// four passive-target epochs, each taking 64 call-site snapshots per
// rank (with interleaved local advances) before the collective join.
func clockMemWorkload(s *detector.MustShared, ranks int) {
	t := uint64(1)
	for epoch := 0; epoch < 4; epoch++ {
		for r := 0; r < ranks; r++ {
			for k := 0; k < 64; k++ {
				s.Advance(r, t)
				_ = s.Snapshot(r, t)
				t++
			}
		}
		s.JoinAll()
	}
}

// clockMemResults measures the happens-before clock memory at scale:
// the identical 256-rank snapshot workload under the adaptive
// epoch⇄vector representation and the always-vector baseline. The
// metrics record the clock payload each representation allocates —
// reduction_x on the adaptive series is the §5.3 piggybacking cost
// recovered (gated ≥10× in CI).
func clockMemResults(ranks int) []Result {
	var out []Result
	for _, mode := range []struct {
		name string
		mk   func() *detector.MustShared
	}{
		{"adaptive", func() *detector.MustShared { return detector.NewMustShared(ranks) }},
		{"vector", func() *detector.MustShared { return detector.NewMustSharedVector(ranks) }},
	} {
		mode := mode
		var stats detector.ClockStats
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := mode.mk()
				clockMemWorkload(s, ranks)
				stats = s.ClockStats()
			}
		})
		m := map[string]float64{
			"clock_bytes":        float64(stats.BytesAdaptive),
			"clock_bytes_vector": float64(stats.BytesVector),
			"epoch_snapshots":    float64(stats.EpochSnaps),
			"shared_snapshots":   float64(stats.SharedSnaps),
			"vector_snapshots":   float64(stats.VectorSnaps),
			"promotions":         float64(stats.Promotions),
			"full_clocks_live":   float64(stats.FullClocksLive),
			"epochs_held":        float64(stats.EpochsHeld),
		}
		if stats.BytesAdaptive > 0 {
			m["reduction_x"] = float64(stats.BytesVector) / float64(stats.BytesAdaptive)
		}
		out = append(out, result(fmt.Sprintf("clock-mem/r%d/%s", ranks, mode.name), r, m))
	}
	return out
}

// depotResults measures stack-depot deduplication on a synthetic
// workload of 10000 captures over 32 distinct call sites — the shape a
// capture-enabled run produces (many accesses, few sites).
func depotResults() []Result {
	const sites, captures = 32, 10000
	pcs := make([][]uintptr, sites)
	for s := range pcs {
		pcs[s] = []uintptr{uintptr(0x400000 + s), uintptr(0x500000 + s*3), uintptr(0x600000 + s*7)}
	}
	var stats depot.Stats
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := depot.New()
			for k := 0; k < captures; k++ {
				d.Insert(pcs[k%sites], func([]uintptr) string { return "synthetic frame (bench.go:1)" })
			}
			stats = d.Stats()
		}
	})
	m := map[string]float64{
		"entries": float64(stats.Entries),
		"bytes":   float64(stats.Bytes),
		"hits":    float64(stats.Hits),
		"misses":  float64(stats.Misses),
	}
	if stats.Entries > 0 {
		m["dedup_x"] = float64(captures) / float64(stats.Entries)
	}
	return []Result{result("stack-depot/dedup", r, m)}
}

// figure10Results runs the scaled CFD-Proxy workload per method and
// records the epoch-time and node metrics of the figure's bars.
func figure10Results() []Result {
	cfg := cfdproxy.Config{Ranks: 12, Iters: 10, Points: 20, InteriorOps: 200}
	var out []Result
	for _, m := range detector.Methods() {
		m := m
		var res cfdproxy.Result
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				res, err = cfdproxy.Run(cfg, m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, result("figure10-cfdproxy/"+m.String(), r, map[string]float64{
			"epoch_ms": float64(res.EpochTime.Milliseconds()),
			"nodes":    float64(res.MaxNodesPerProcess),
		}))
	}
	return out
}

// table4Results reports the per-process node counts of the two
// tree-based analyzers on MiniVite.
func table4Results(vertices int) []Result {
	var out []Result
	for _, mm := range []struct {
		name string
		m    detector.Method
	}{
		{"rma-analyzer", detector.RMAAnalyzer},
		{"our-contribution", detector.OurContribution},
	} {
		mm := mm
		var res minivite.Result
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				res, err = minivite.Run(minivite.Default(8, vertices), mm.m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, result("table4-nodes/r8/"+mm.name, r, map[string]float64{
			"nodes":   float64(res.MaxNodesPerProcess),
			"proc_ms": float64(res.PerProcessTime.Microseconds()) / 1000,
		}))
	}
	return out
}

// AdjacentStream emits n adjacent same-line RMA writes (mergeable): the
// CFD-Proxy-shaped pattern.
func AdjacentStream(n int) []detector.Event {
	out := make([]detector.Event, n)
	for i := range out {
		out[i] = detector.Event{
			Acc: access.Access{
				Interval: interval.Span(uint64(i)*8, 8),
				Type:     access.RMAWrite,
				Rank:     0,
				Debug:    access.Debug{File: "adj.c", Line: 7},
			},
			Time: uint64(i + 1), CallTime: uint64(i + 1),
		}
	}
	return out
}

// StridedStream emits n strided reads at distinct lines (unmergeable):
// the MiniVite-shaped pattern.
func StridedStream(n int) []detector.Event {
	out := make([]detector.Event, n)
	for i := range out {
		out[i] = detector.Event{
			Acc: access.Access{
				Interval: interval.Span(uint64(i)*24, 8),
				Type:     access.RMARead,
				Rank:     0,
				Debug:    access.Debug{File: "strided.c", Line: 100 + i%4},
			},
			Time: uint64(i + 1), CallTime: uint64(i + 1),
		}
	}
	return out
}
