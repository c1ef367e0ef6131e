// Package benchkit holds the repository's benchmark series and runs
// them from a normal binary. A series is one named benchmark row, such
// as insert/ours/adjacent; Table lists every series with its one body,
// a func(*testing.B) that reports its metrics with b.ReportMetric.
// `rmarace bench` runs the table through testing.Benchmark (Suite) and
// serialises ns/op, allocs/op and those metrics to JSON, so successive
// changes can diff BENCH_PR8.json-style snapshots without parsing
// `go test -bench` text. The root package's bench_test.go runs the same
// entries with b.Run, so both harnesses measure identical code.
//
// The trace-ingest and serve sweeps are single timed passes rather
// than testing.Benchmark bodies; only `rmarace bench` runs them.
package benchkit

import (
	"encoding/json"
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

// Report is the full suite output `rmarace bench` writes.
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
	// Quick restricts the suite to the gated series — the table's Quick
	// rows and the small trace-ingest and serve sweeps — skipping the
	// slower figure/table reproductions (the CI memory-bench step).
	Quick bool
}

// Suite runs the series table and the sweeps and collects the report.
func Suite(opts Options) Report {
	if opts.Vertices <= 0 {
		opts.Vertices = 16000
	}
	var out []Result
	for _, s := range Table(opts.Vertices) {
		if s.Quick || !opts.Quick {
			out = append(out, result(s.Name, testing.Benchmark(s.Bench)))
		}
	}
	out = append(out, traceIngestResults(opts.Quick)...)
	out = append(out, serveSweepResults(opts.Quick)...)
	if opts.Quick {
		return Report{
			Suite:   "rmarace perf suite (quick: insert hot path, notification pipeline, clock memory, stack depot, trace ingest, serve sweep)",
			Results: out,
		}
	}
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

func result(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     r.Extra,
	}
}

// Series is one named benchmark row and its only body.
type Series struct {
	// Name is the row name in the JSON snapshot; its first path element
	// picks the `go test` benchmark that runs it (insert/ runs under
	// BenchmarkInsert).
	Name string
	// Quick marks the gated rows `rmarace bench -quick` keeps.
	Quick bool
	// Bench is the body. It reports its metrics with b.ReportMetric.
	Bench func(*testing.B)
}

// Table returns every series in report order. vertices is the MiniVite
// input size of the Table 4 rows.
func Table(vertices int) []Series {
	adjacent, strided := AdjacentStream(4096), StridedStream(4096)
	notify := AdjacentStream(1 << 14)
	ours := func() detector.Analyzer { return core.New() }
	legacy := func() detector.Analyzer { return detector.NewLegacy() }
	out := []Series{
		{"insert/ours/adjacent", true, insertBench(adjacent, ours)},
		{"insert/ours/strided", true, insertBench(strided, ours)},
		{"insert/legacy/adjacent", false, insertBench(adjacent, legacy)},
		{"insert/legacy/strided", false, insertBench(strided, legacy)},
		{"notification-throughput/batch1", false, notificationBench(notify, 1)},
		{"notification-throughput/batch64", true, notificationBench(notify, 64)},
		{"clock-mem/r256/adaptive", true, clockMemBench(256, detector.NewMustShared)},
		{"clock-mem/r256/vector", true, clockMemBench(256, detector.NewMustSharedVector)},
		{"stack-depot/dedup", true, depotBench},
	}
	for _, m := range detector.Methods() {
		out = append(out, Series{"figure10-cfdproxy/" + m.String(), false, figure10Bench(m)})
	}
	out = append(out,
		Series{"table4-nodes/r8/rma-analyzer", false, table4Bench(vertices, detector.RMAAnalyzer)},
		Series{"table4-nodes/r8/our-contribution", false, table4Bench(vertices, detector.OurContribution)})
	return out
}

// insertBench measures per-access analyzer cost (the zero-allocation
// hot path of the contribution) on one access pattern, one epoch per
// pass over the stream.
func insertBench(stream []detector.Event, mk func() detector.Analyzer) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		z := mk()
		for i := 0; i < b.N; i++ {
			if race := z.Access(stream[i%len(stream)]); race != nil {
				b.Fatal(race)
			}
			if i%len(stream) == len(stream)-1 {
				z.EpochEnd()
			}
		}
	}
}

// notificationBench measures end-to-end engine throughput (one op =
// one analysed event): an adjacent stream notified in batches to one
// rank's receiver, which analyses it serially. Batch 1 is one channel
// message per access, the pre-pipeline behaviour; larger batches
// amortise the channel, lock and condvar traffic and let the
// analyzer's frontier fast path elide the per-access neighbour search.
func notificationBench(stream []detector.Event, batch int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := engine.New(engine.Config{
			Ranks:       1,
			NewAnalyzer: func(int) detector.Analyzer { return core.New() },
		})
		e.StartReceiver(0)
		defer e.Close()
		b.ResetTimer()
		var sent int64
		for i := 0; i < b.N; {
			// One analysis epoch per pass over the stream.
			for off := 0; off < len(stream) && i < b.N; off += batch {
				end := min(off+batch, len(stream))
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
		var nodes int
		e.WithAnalyzer(0, func(a detector.Analyzer) { nodes = a.MaxNodes() })
		b.ReportMetric(float64(nodes), "max_nodes")
	}
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

// clockMemBench measures the happens-before clock memory at scale: the
// same snapshot workload under one clock representation (the adaptive
// epoch⇄vector one or the always-vector baseline). The metrics record
// the clock payload it allocates; reduction_x on the adaptive row is
// the §5.3 piggybacking cost recovered (gated ≥10× in CI).
func clockMemBench(ranks int, mk func(int) *detector.MustShared) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var stats detector.ClockStats
		for i := 0; i < b.N; i++ {
			s := mk(ranks)
			clockMemWorkload(s, ranks)
			stats = s.ClockStats()
		}
		b.ReportMetric(float64(stats.BytesAdaptive), "clock_bytes")
		b.ReportMetric(float64(stats.BytesVector), "clock_bytes_vector")
		b.ReportMetric(float64(stats.EpochSnaps), "epoch_snapshots")
		b.ReportMetric(float64(stats.SharedSnaps), "shared_snapshots")
		b.ReportMetric(float64(stats.VectorSnaps), "vector_snapshots")
		b.ReportMetric(float64(stats.Promotions), "promotions")
		b.ReportMetric(float64(stats.FullClocksLive), "full_clocks_live")
		b.ReportMetric(float64(stats.EpochsHeld), "epochs_held")
		if stats.BytesAdaptive > 0 {
			b.ReportMetric(float64(stats.BytesVector)/float64(stats.BytesAdaptive), "reduction_x")
		}
	}
}

// depotBench measures stack-depot deduplication on a synthetic
// workload of 10000 captures over 32 distinct call sites — the shape a
// capture-enabled run produces (many accesses, few sites).
func depotBench(b *testing.B) {
	const sites, captures = 32, 10000
	pcs := make([][]uintptr, sites)
	for s := range pcs {
		pcs[s] = []uintptr{uintptr(0x400000 + s), uintptr(0x500000 + s*3), uintptr(0x600000 + s*7)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats depot.Stats
	for i := 0; i < b.N; i++ {
		d := depot.New()
		for k := 0; k < captures; k++ {
			d.Insert(pcs[k%sites], func([]uintptr) string { return "synthetic frame (bench.go:1)" })
		}
		stats = d.Stats()
	}
	b.ReportMetric(float64(stats.Entries), "entries")
	b.ReportMetric(float64(stats.Bytes), "bytes")
	b.ReportMetric(float64(stats.Hits), "hits")
	b.ReportMetric(float64(stats.Misses), "misses")
	if stats.Entries > 0 {
		b.ReportMetric(float64(captures)/float64(stats.Entries), "dedup_x")
	}
}

// figure10Bench runs the scaled CFD-Proxy workload under one method;
// epoch_ms and nodes are the figure's bar and the §5.3 node claim.
func figure10Bench(m detector.Method) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var res cfdproxy.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = cfdproxy.Run(cfdproxy.Config{Ranks: 12, Iters: 10, Points: 20, InteriorOps: 200}, m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.EpochTime.Milliseconds()), "epoch_ms")
		b.ReportMetric(float64(res.MaxNodesPerProcess), "nodes")
	}
}

// table4Bench reports one tree-based analyzer's per-process node count
// on MiniVite at 8 ranks.
func table4Bench(vertices int, m detector.Method) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var res minivite.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = minivite.Run(minivite.Default(8, vertices), m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.MaxNodesPerProcess), "nodes")
		b.ReportMetric(float64(res.PerProcessTime.Microseconds())/1000, "proc_ms")
	}
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
