// Command rmarace is the reproduction's main CLI: it replays recorded
// access traces under any of the four analysis methods and reports
// races, node counts and analysis statistics.
//
// Usage:
//
//	rmarace replay -method our-contribution trace.jsonl
//	rmarace replay -compare trace.jsonl
//	rmarace replay -shards 8 trace.jsonl   # sharded contribution analyzer
//	rmarace replay -report out.json trace.jsonl   # write a structured run report
//	rmarace replay -telemetry :9090 -spans spans.json -flight 64 trace.jsonl
//	rmarace replay -batch 64 -evict 2 -compact big.bin   # bounded-memory streaming replay
//	rmarace convert -o trace.bin trace.jsonl   # JSON <-> binary trace conversion
//	rmarace stats out.json   # summarise a run report
//	rmarace stats -format prom out.json   # Prometheus text exposition
//	rmarace postmortem out.json   # render a race's flight-recorder dump
//	rmarace demo    # run the paper's Code 1 and print the report
//	rmarace codes   # run every example program of the paper under all tools
//	rmarace bench   # run the perf suite and write BENCH_PR8.json
//	rmarace bench -telemetry :9090 -spans spans.json
//	rmarace serve -addr :8080   # multi-tenant analysis daemon
//	rmarace submit -addr http://host:8080 trace.bin   # analyse via a daemon
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rmarace/internal/benchkit"
	"rmarace/internal/codes"
	"rmarace/internal/detector"
	"rmarace/internal/fuzz"
	"rmarace/internal/obs"
	"rmarace/internal/obs/olog"
	"rmarace/internal/obs/span"
	"rmarace/internal/obs/telemetry"
	"rmarace/internal/rma"
	"rmarace/internal/serve"
	"rmarace/internal/store"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rmarace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "replay":
		replayCmd(os.Args[2:])
	case "convert":
		convertCmd(os.Args[2:])
	case "stats":
		statsCmd(os.Args[2:])
	case "postmortem":
		postmortemCmd(os.Args[2:])
	case "demo":
		demoCmd()
	case "codes":
		codesCmd()
	case "bench":
		benchCmd(os.Args[2:])
	case "serve":
		serveCmd(os.Args[2:])
	case "submit":
		submitCmd(os.Args[2:])
	case "watch":
		watchCmd(os.Args[2:])
	case "fuzz":
		fuzzCmd(os.Args[2:])
	case "conformance":
		conformanceCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rmarace replay [-method NAME] [-store NAME] [-shards K] [-compare] [-report FILE]
                 [-telemetry ADDR] [-spans FILE] [-flight N]
                 [-batch N] [-evict K] [-compact] TRACE
  rmarace convert [-o FILE] [-to bin|json] TRACE
  rmarace stats [-format text|prom] REPORT
  rmarace postmortem [-method NAME] [-flight N] REPORT|TRACE
  rmarace demo
  rmarace codes
  rmarace bench [-o FILE] [-vertices N] [-telemetry ADDR] [-spans FILE]
  rmarace serve [-addr ADDR] [-workers N] [-max-sessions N] [-tenant-sessions N]
                [-max-bytes N] [-max-records N] [-retain N] [-log-level LEVEL]
  rmarace submit [-addr URL] [-tenant NAME] [-method NAME] [-store NAME]
                 [-shards K] [-batch N] [-evict K] [-compact] [-flight N]
                 [-spans] [-retry N] TRACE
  rmarace watch [-addr URL] SESSION
  rmarace fuzz [-duration D] [-seed N] [-schedules K] [-stores LIST]
               [-shards LIST] [-batches LIST] [-out DIR] [-canary]
  rmarace conformance [-out FILE] [-baseline FILE] [-quiet]

methods: baseline, rma-analyzer, must-rma, our-contribution
stores (-store, the contribution's backend): avl (default), legacy, shadow,
        strided; rma-analyzer always runs over its own lower-bound BST and
        refuses -store
TRACE may be JSON Lines or the RMTB binary format; replay, convert and
        postmortem sniff the leading bytes and pick the right decoder
-shards splits the contribution analyzer into K address-space shards
        (a power of two, at most 64), analysed serially
-batch coalesces up to N access events per owner into one batch
-evict retires a (rank,window) analyzer after K accessless epochs
-compact releases retained analyzer capacity at every epoch boundary
convert rewrites a trace into the other format losslessly (-to forces
        the target; default is the opposite of the input's)
-report records analysis metrics and writes a structured run report
        (schema rmarace/run-report/v1); summarise it with rmarace stats
-telemetry serves live /metrics, /report, /healthz and /debug/pprof
        on ADDR for the duration of the run
-spans exports a causal span timeline as Chrome trace-event JSON
        (open it in Perfetto or chrome://tracing)
-flight keeps a flight recorder of the last N events per window owner;
        a detected race carries the snapshot (render with postmortem)
fuzz generates random MPI-RMA programs and differentially checks every
        store × shard × batch configuration against the brute-force
        oracle under permuted schedules; a divergence is minimised by
        delta debugging and written to -out as a replayable reproducer
        (-canary adds the known-faulty legacy backend, which must fail)
conformance scores every detector configuration over the labeled
        scenario corpus (internal/conformance) with per-category
        precision/recall/F1; -out writes the JSON baseline, -baseline
        diffs against a committed CONFORMANCE.json and exits 1 on any
        per-category F1 regression
serve starts the long-lived multi-tenant analysis daemon: POST traces
        (either format, streamed) to /v1/analyze and read verdicts,
        reports, postmortems and Prometheus /metrics back; submit is
        its client (-retry retries 429 rejects per their Retry-After,
        -spans captures a Perfetto timeline on the session)
serve -log-level turns on structured JSON logging to stderr; every
        line carries the tenant and session id, so one grep follows a
        session end to end
watch streams a served session's live progress (SSE from
        /v1/sessions/{id}/events) and exits with its verdict`)
	os.Exit(2)
}

// replayObs selects the replay command's observability extras and the
// streaming memory policy.
type replayObs struct {
	report    string // run-report JSON output path
	telemetry string // live HTTP server address
	spans     string // Chrome trace-event JSON output path
	flight    int    // flight-recorder depth per window owner
	batch     int    // event-batch size per owner
	evict     int    // cold-epoch threshold for analyzer eviction
	compact   bool   // release retained capacity at epoch boundaries
}

func replayOne(path string, method detector.Method, storeName string, shards int, o replayObs) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, format, err := tracebin.Open(f)
	if err != nil {
		return err
	}
	head := src.Head()
	var reg *obs.Registry
	if o.report != "" || o.telemetry != "" {
		reg = obs.NewRegistry()
	}
	if o.telemetry != "" {
		srv, err := telemetry.Serve(o.telemetry, telemetry.Sources{
			Registry: reg,
			// A mid-replay /report serves whatever the registry has seen
			// so far; the counters are live, the totals fill in at the end.
			Report: func() *obs.RunReport {
				return serve.ReplayReport("replay", head, method, trace.ReplayResult{}, reg)
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("telemetry at %s (metrics, report, healthz, debug/pprof)", srv.URL())
	}
	var tr *span.Tracer
	if o.spans != "" {
		tr = span.NewLogicalTracer(head.Ranks, 0)
	}
	start := time.Now()
	factory, mustShared, err := serve.NewAnalyzerFactory(method, head.Ranks, storeName, shards, obs.OrDisabled(reg))
	if err != nil {
		return err
	}
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{
		Spans: tr, FlightN: o.flight,
		Batch: o.batch, EvictCold: o.evict, Compact: o.compact,
		Recorder: obs.OrDisabled(reg),
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rma.RecordClockStats(reg, mustShared)
	fmt.Printf("%-16s %8d events  %3d epochs  %8d max nodes  %10v  (%s trace)", method, res.Events, res.Epochs, res.MaxNodes, elapsed, format)
	if res.Evictions > 0 {
		fmt.Printf("\n  evicted %d cold analyzers", res.Evictions)
	}
	if res.Race != nil {
		fmt.Printf("\n  RACE: %s", res.Race.Message())
		if n := len(res.Race.FlightLog); n > 0 {
			fmt.Printf("\n  flight recorder captured %d events (rmarace postmortem renders them)", n)
		}
	}
	fmt.Println()
	if o.spans != "" {
		out, err := os.Create(o.spans)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s (%d spans; open in Perfetto)", o.spans, tr.Len())
	}
	if o.report != "" {
		rep := serve.ReplayReport("replay", head, method, res, reg)
		out, err := os.Create(o.report)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s", o.report)
	}
	return nil
}

// convertCmd rewrites a trace losslessly into the other format —
// JSON Lines to the RMTB binary format or back. The input format is
// sniffed; -to forces the target (defaulting to the opposite), so
// `convert -to json` also canonicalises a JSON trace.
func convertCmd(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: input path with the target format's extension)")
	to := fs.String("to", "", "target format: bin or json (default: the opposite of the input's)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	in := fs.Arg(0)
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	src, format, err := tracebin.Open(f)
	if err != nil {
		log.Fatal(err)
	}
	target := *to
	if target == "" {
		if format == "bin" {
			target = "json"
		} else {
			target = "bin"
		}
	}
	outPath := *out
	if outPath == "" {
		base := strings.TrimSuffix(strings.TrimSuffix(in, ".jsonl"), ".bin")
		if target == "bin" {
			outPath = base + ".bin"
		} else {
			outPath = base + ".jsonl"
		}
		if outPath == in {
			log.Fatalf("refusing to overwrite %s; pass -o", in)
		}
	}
	of, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	var sink trace.Sink
	switch target {
	case "bin":
		sink, err = tracebin.NewWriter(of, src.Head())
	case "json":
		sink, err = trace.NewWriter(of, src.Head())
	default:
		log.Fatalf("unknown target format %q (want bin or json)", target)
	}
	if err != nil {
		log.Fatal(err)
	}
	n, err := tracebin.Convert(sink, src)
	if err != nil {
		log.Fatal(err)
	}
	if err := of.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("converted %d records: %s (%s) -> %s (%s, %d bytes)",
		n, in, format, outPath, target, sizeOf(outPath))
}

func sizeOf(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// statsCmd reads a run report written by `replay -report`, `bench` or
// the library and prints its human summary.
func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text (human summary) or prom (Prometheus text exposition, the live /metrics renderer)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "text":
		rep.Summary(os.Stdout)
	case "prom":
		if err := obs.WriteProm(os.Stdout, rep.Metrics); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown format %q (want text or prom)", *format)
	}
}

// postmortemCmd renders a race's flight-recorder dump: the last N
// accesses and synchronisations the detecting analyzer saw, with the
// two conflicting accesses marked. It reads either a run report written
// by `replay -report` (using its recorded flight section) or a raw
// trace, which it replays with the flight recorder on.
func postmortemCmd(args []string) {
	fs := flag.NewFlagSet("postmortem", flag.ExitOnError)
	methodName := fs.String("method", "our-contribution", "analysis method when replaying a trace")
	flight := fs.Int("flight", 64, "flight-recorder depth when replaying a trace")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	// A run report is a single schema-tagged JSON document; anything
	// else is treated as a trace stream.
	if rep, err := obs.ReadReport(bytes.NewReader(data)); err == nil {
		dumped := 0
		for i, rc := range rep.Races {
			if len(rc.Flight) == 0 {
				continue
			}
			fmt.Printf("RACE %d: %s\n", i, rc.Message)
			fmt.Printf("  window=%s owner=%d shard=%d\n", rc.Window, rc.Owner, rc.Shard)
			rc.WriteFlight(os.Stdout)
			dumped++
		}
		if dumped == 0 {
			log.Fatal("report carries no flight recording (replay with -flight N -report FILE)")
		}
		return
	}

	method, err := detector.MethodByName(*methodName)
	if err != nil {
		log.Fatal(err)
	}
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	factory, _, err := serve.NewAnalyzerFactory(method, src.Head().Ranks, "", 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{FlightN: *flight})
	if err != nil {
		log.Fatal(err)
	}
	if res.Race == nil {
		log.Fatalf("no race detected in %d events; nothing to dissect", res.Events)
	}
	fmt.Printf("RACE: %s\n", res.Race.Message())
	if p := res.Race.Prov; p != nil {
		fmt.Printf("  window=%s owner=%d shard=%d\n", p.Window, p.Owner, p.Shard)
	}
	detector.WriteFlight(os.Stdout, res.Race.FlightLog, res.Race)
}

func replayCmd(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	methodName := fs.String("method", "our-contribution", "analysis method")
	storeName := fs.String("store", "", "storage backend of the contribution (avl, legacy, shadow, strided); rma-analyzer refuses it")
	shards := fs.Int("shards", 1, "address-space shard count for the contribution analyzer (power of two, at most 64; 1 = unsharded)")
	compare := fs.Bool("compare", false, "replay under all four methods")
	report := fs.String("report", "", "write a structured run report (JSON) to this path")
	telAddr := fs.String("telemetry", "", "serve live /metrics, /report, /healthz and /debug/pprof on this address during the replay")
	spansPath := fs.String("spans", "", "write the replay's causal spans (Chrome trace-event JSON) to this path")
	flight := fs.Int("flight", 0, "flight-recorder depth per window owner (0 disables)")
	batch := fs.Int("batch", 0, "coalesce up to N access events per owner into one batch (<2 keeps the per-event path)")
	evict := fs.Int("evict", 0, "retire a (rank,window) analyzer after K consecutive accessless epochs (0 disables)")
	compact := fs.Bool("compact", false, "release retained analyzer capacity at every epoch boundary")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	if _, err := store.New(*storeName); err != nil {
		log.Fatal(err)
	}
	o := replayObs{report: *report, telemetry: *telAddr, spans: *spansPath, flight: *flight,
		batch: *batch, evict: *evict, compact: *compact}

	if *compare {
		if *report != "" || *telAddr != "" || *spansPath != "" {
			log.Fatal("-compare replays four times; -report, -telemetry and -spans attach to a single replay")
		}
		for _, m := range detector.Methods() {
			st := *storeName
			if m == detector.RMAAnalyzer {
				st = "" // always over its own BST; -store is the contribution's
			}
			if err := replayOne(path, m, st, *shards,
				replayObs{flight: *flight, batch: *batch, evict: *evict, compact: *compact}); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	method, err := detector.MethodByName(*methodName)
	if err != nil {
		log.Fatal(err)
	}
	if err := serve.CheckStore(method, *storeName); err != nil {
		log.Fatal(err)
	}
	if err := replayOne(path, method, *storeName, *shards, o); err != nil {
		log.Fatal(err)
	}
}

// benchCmd runs the perf suite (insert hot path, notification
// pipeline, clock memory, stack depot, Figure 10, Table 4) and writes
// the JSON snapshot.
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH_PR8.json", "output JSON path")
	vertices := fs.Int("vertices", 0, "MiniVite benchmark input size (0 = scaled default)")
	telAddr := fs.String("telemetry", "", "serve live /metrics, /report, /healthz and /debug/pprof on this address during the suite")
	spansPath := fs.String("spans", "", "write the instrumented run's causal spans (Chrome trace-event JSON) to this path")
	quick := fs.Bool("quick", false, "run only the gated series (insert, notification, clock memory, stack depot, small trace-ingest sweep, serve sweep)")
	check := fs.Bool("check", false, "gate the snapshot: hot paths 0 allocs/op, adaptive clock reduction ≥ 10x, depot interned, binary ingest ≥ 2x JSON, peak RSS ≤ 2x at 4x the trace, serve sweep 0 verdict mismatches and observable quota rejection; exit 1 on failure")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	opts := benchkit.Options{Vertices: *vertices, Quick: *quick}
	if *telAddr != "" {
		reg := obs.NewRegistry()
		opts.Registry = reg
		srv, err := telemetry.Serve(*telAddr, telemetry.Sources{
			Registry: reg,
			Report: func() *obs.RunReport {
				return &obs.RunReport{Schema: obs.ReportSchema, Source: "bench", Metrics: reg.Snapshot()}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry at %s (metrics, report, healthz, debug/pprof)", srv.URL())
	}
	if *spansPath != "" {
		sf, err := os.Create(*spansPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := sf.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s (open in Perfetto)", *spansPath)
		}()
		opts.SpanSink = sf
	}
	rep := benchkit.Suite(opts)
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-44s %12d  %10.1f ns/op  %6d B/op  %4d allocs/op", r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for k, v := range r.Metrics {
			fmt.Printf("  %s=%.1f", k, v)
		}
		fmt.Println()
	}
	log.Printf("wrote %s", *out)
	if *check {
		if errs := checkBench(rep); len(errs) > 0 {
			for _, e := range errs {
				log.Printf("bench check FAILED: %v", e)
			}
			os.Exit(1)
		}
		log.Print("bench check passed")
	}
}

// checkBench enforces the performance gates on a suite snapshot: the
// contribution's insert and the notification hot paths stay
// allocation-free (the legacy insert rows allocate by design), the
// adaptive clock representation recovers ≥10× of the always-vector
// clock bytes at 256 ranks, the stack depot actually interns, binary
// trace ingest decodes ≥2× faster than JSON, the bounded-memory
// replay's peak live heap grows ≤2× when the trace grows 4×, and the
// serve sweep matches offline verdicts and observes a quota reject.
func checkBench(rep benchkit.Report) []error {
	// Each gate is named by the rows it reads.
	const (
		gateHot    = "insert/ours/* and notification-throughput/*"
		gateClock  = "clock-mem/*/adaptive"
		gateDepot  = "stack-depot/dedup"
		gateIngest = "trace-ingest/*/bin"
		gateRSS    = "trace-rss/*"
		gateServe  = "serve-agg/*"
		gateQuota  = "serve-quota/rejects"
	)
	var errs []error
	found := map[string]bool{}
	for _, r := range rep.Results {
		switch {
		case strings.HasPrefix(r.Name, "insert/ours/"), strings.HasPrefix(r.Name, "notification-throughput/"):
			found[gateHot] = true
			if r.AllocsPerOp != 0 {
				errs = append(errs, fmt.Errorf("%s allocates %d allocs/op on the hot path, want 0", r.Name, r.AllocsPerOp))
			}
		case strings.HasPrefix(r.Name, "clock-mem/") && strings.HasSuffix(r.Name, "/adaptive"):
			found[gateClock] = true
			if red := r.Metrics["reduction_x"]; red < 10 {
				errs = append(errs, fmt.Errorf("%s clock-byte reduction %.1fx, want >= 10x", r.Name, red))
			}
		case r.Name == "stack-depot/dedup":
			found[gateDepot] = true
			if r.Metrics["entries"] <= 0 {
				errs = append(errs, fmt.Errorf("%s interned no stacks", r.Name))
			}
			if r.Metrics["dedup_x"] < 2 {
				errs = append(errs, fmt.Errorf("%s dedup factor %.1fx, want >= 2x", r.Name, r.Metrics["dedup_x"]))
			}
		case strings.HasPrefix(r.Name, "trace-ingest/") && strings.HasSuffix(r.Name, "/bin"):
			found[gateIngest] = true
			if sp := r.Metrics["speedup_x"]; sp < 2 {
				errs = append(errs, fmt.Errorf("%s binary ingest speedup %.1fx over JSON, want >= 2x", r.Name, sp))
			}
		case strings.HasPrefix(r.Name, "trace-rss/"):
			found[gateRSS] = true
			if r.Metrics["rss_large_bytes"] <= 0 {
				errs = append(errs, fmt.Errorf("%s recorded no peak RSS", r.Name))
			}
			if g := r.Metrics["growth_x"]; g > 2 {
				errs = append(errs, fmt.Errorf("%s peak RSS grew %.2fx at 4x the trace, want <= 2x", r.Name, g))
			}
		case strings.HasPrefix(r.Name, "serve-agg/"):
			found[gateServe] = true
			if r.Metrics["sessions"] <= 0 {
				errs = append(errs, fmt.Errorf("%s completed no sessions", r.Name))
			}
			if mm := r.Metrics["verdict_mismatches"]; mm != 0 {
				errs = append(errs, fmt.Errorf("%s served %.0f verdicts diverging from offline replay, want 0", r.Name, mm))
			}
		case r.Name == "serve-quota/rejects":
			found[gateQuota] = true
			if r.Metrics["quota_rejects"] < 1 {
				errs = append(errs, fmt.Errorf("%s observed no quota rejection", r.Name))
			}
		}
	}
	for _, k := range []string{gateHot, gateClock, gateDepot, gateIngest, gateRSS, gateServe, gateQuota} {
		if !found[k] {
			errs = append(errs, fmt.Errorf("gated series %s missing from the suite", k))
		}
	}
	return errs
}

// serveCmd starts the long-lived analysis daemon (see internal/serve).
// Sessions pick their analysis method per request; the daemon-level
// flags bound concurrency and per-session ingest.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent replay workers (0 = GOMAXPROCS)")
	maxSessions := fs.Int("max-sessions", 0, "daemon-wide in-flight session cap (0 = 8x workers)")
	tenantSessions := fs.Int("tenant-sessions", 0, "per-tenant in-flight session cap (0 = the daemon cap)")
	maxBytes := fs.Int64("max-bytes", 0, "per-session ingest byte quota (0 = unlimited)")
	maxRecords := fs.Int64("max-records", 0, "per-session trace record quota (0 = unlimited)")
	retain := fs.Int("retain", 0, "completed sessions to retain for the API (0 = default)")
	logLevel := fs.String("log-level", "", "structured JSON logs to stderr at this level (debug|info|warn|error; default off)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	cfg := serve.Config{
		Workers:           *workers,
		MaxSessions:       *maxSessions,
		TenantSessions:    *tenantSessions,
		MaxSessionBytes:   *maxBytes,
		MaxSessionRecords: *maxRecords,
		Retain:            *retain,
	}
	if *logLevel != "" {
		cfg.Logger = olog.New(os.Stderr, olog.ParseLevel(*logLevel))
	}
	_, srv, err := serve.Start(*addr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("analysis daemon at %s (POST /v1/analyze; /v1/sessions, /metrics, /report, /healthz)", srv.URL())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}

// submitCmd streams one trace file to a running daemon and prints the
// verdict — the client half of detection as a service.
func submitCmd(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	tenant := fs.String("tenant", "", "tenant name (X-Tenant header)")
	methodName := fs.String("method", "", "analysis method (default: the daemon's)")
	storeName := fs.String("store", "", "storage backend of the contribution (avl, legacy, shadow, strided); rma-analyzer refuses it")
	shards := fs.Int("shards", 0, "address-space shard count")
	batch := fs.Int("batch", 0, "event-batch size per owner")
	evict := fs.Int("evict", 0, "cold-epoch threshold for analyzer eviction")
	compact := fs.Bool("compact", false, "release retained analyzer capacity at epoch boundaries")
	flight := fs.Int("flight", 0, "flight-recorder depth per window owner")
	spans := fs.Bool("spans", false, "capture a span timeline (read it back from /v1/sessions/{id}/spans)")
	retry := fs.Int("retry", 0, "attempts to retry a 429 admission reject, honoring its Retry-After hint")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if m, err := detector.MethodByName(*methodName); err == nil {
		if err := serve.CheckStore(m, *storeName); err != nil {
			log.Fatal(err)
		}
	}

	q := url.Values{}
	setIf := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	setIf("method", *methodName)
	setIf("store", *storeName)
	if *shards > 0 {
		q.Set("shards", strconv.Itoa(*shards))
	}
	if *batch > 0 {
		q.Set("batch", strconv.Itoa(*batch))
	}
	if *evict > 0 {
		q.Set("evict", strconv.Itoa(*evict))
	}
	if *compact {
		q.Set("compact", "true")
	}
	if *flight > 0 {
		q.Set("flight", strconv.Itoa(*flight))
	}
	if *spans {
		q.Set("spans", "1")
	}
	status, v, err := serve.Submit(context.Background(), *addr,
		func() (io.ReadCloser, error) { return os.Open(fs.Arg(0)) },
		serve.SubmitOpts{Tenant: *tenant, Query: q, Retries: *retry})
	if err != nil {
		log.Fatal(err)
	}
	if status != http.StatusOK {
		log.Fatalf("daemon answered %d: %s", status, v.Error)
	}
	fmt.Printf("%-16s %8d events  %3d epochs  %8d max nodes  (%s trace, session %s)\n",
		v.Method, v.Events, v.Epochs, v.MaxNodes, v.Format, v.Session)
	if v.Race != nil {
		fmt.Printf("  RACE: %s\n", v.Race.Message)
		os.Exit(1)
	}
}

// watchCmd attaches to a running (or retained) session's live event
// stream and follows it to the verdict: the terminal half of
// observability-as-a-service. Find session ids with GET /v1/sessions
// or a verdict's X-Session header.
func watchCmd(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	v, err := serve.Watch(context.Background(), *addr, fs.Arg(0), nil, func(s obs.ProgressSnapshot) {
		fmt.Printf("%-9s %10d bytes  %8d records  %8d events  %4d epochs  %d races  %.1fms\n",
			s.Stage, s.Bytes, s.Records, s.Events, s.Epochs, s.Races, float64(s.ElapsedNs)/1e6)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s  %-16s %8d events  %3d epochs  (session %s)\n",
		v.State, v.Tenant, v.Method, v.Events, v.Epochs, v.Session)
	if v.Error != "" {
		log.Fatalf("session failed: %s", v.Error)
	}
	if v.Race != nil {
		fmt.Printf("  RACE: %s\n", v.Race.Message)
		os.Exit(1)
	}
}

// demoCmd runs the paper's Code 1 under the legacy tool and the
// contribution, showing the accuracy fix end to end.
func demoCmd() {
	pr := codes.Code1()
	fmt.Println("Code 1 (Fig. 8a): Load(buf[4]); MPI_Put(buf[2..11]); buf[7] = 0xd2")
	for _, m := range []detector.Method{detector.RMAAnalyzer, detector.OurContribution} {
		detected, race, err := pr.Run(m)
		if err != nil {
			log.Fatal(err)
		}
		if detected {
			fmt.Printf("  %-16s -> %s\n", m, race.Message())
		} else {
			fmt.Printf("  %-16s -> no error found (false negative)\n", m)
		}
	}
}

// codesCmd runs every example program from the paper under the three
// tools and prints the verdict matrix.
func codesCmd() {
	fmt.Printf("%-14s %-38s %-8s %-14s %-10s %s\n",
		"program", "paper", "truth", "RMA-Analyzer", "MUST-RMA", "Our Contribution")
	for _, pr := range codes.All() {
		truth := "safe"
		if pr.Racy {
			truth = "race"
		}
		verdicts := make([]string, 0, 3)
		for _, m := range []detector.Method{detector.RMAAnalyzer, detector.MustRMAMethod, detector.OurContribution} {
			detected, _, err := pr.Run(m)
			if err != nil {
				log.Fatalf("%s under %v: %v", pr.Name, m, err)
			}
			if detected {
				verdicts = append(verdicts, "error")
			} else {
				verdicts = append(verdicts, "-")
			}
		}
		fmt.Printf("%-14s %-38s %-8s %-14s %-10s %s\n",
			pr.Name, pr.Paper, truth, verdicts[0], verdicts[1], verdicts[2])
	}
}

// fuzzCmd is the differential fuzzing driver: seeded random MPI-RMA
// programs, each replayed under permuted deterministic schedules
// through every requested store × shard × batch configuration, with
// the brute-force oracle as ground truth. The first divergence is
// delta-debug minimised, written to -out as a replayable reproducer,
// and exits non-zero.
func fuzzCmd(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	duration := fs.Duration("duration", 30*time.Second, "how long to fuzz")
	seed := fs.Int64("seed", 1, "generator seed (same seed, same program/schedule stream)")
	schedules := fs.Int("schedules", 3, "interleavings per program (identity + K-1 seeded permutations)")
	stores := fs.String("stores", "avl,strided,shadow", "comma-separated store backends to test")
	shards := fs.String("shards", "1,4", "comma-separated shard counts")
	batches := fs.String("batches", "1,64", "comma-separated notification batch sizes")
	out := fs.String("out", "fuzz-repro", "directory for minimised reproducers")
	canary := fs.Bool("canary", false, "include the known-faulty legacy lower-bound backend (expect a divergence)")
	if fs.Parse(args) != nil || fs.NArg() != 0 {
		usage()
	}
	shardList, err := intList(*shards)
	if err != nil {
		log.Fatalf("-shards: %v", err)
	}
	for _, sh := range shardList {
		if err := serve.CheckShards(sh); err != nil {
			log.Fatalf("-shards: %v", err)
		}
	}
	batchList, err := intList(*batches)
	if err != nil {
		log.Fatalf("-batches: %v", err)
	}
	storeList := strings.Split(*stores, ",")
	if *canary {
		storeList = append(storeList, "legacy")
	}
	var cfgs []fuzz.Config
	for _, st := range storeList {
		st = strings.TrimSpace(st)
		if _, err := store.New(st); err != nil {
			log.Fatalf("-stores: %v", err)
		}
		for _, sh := range shardList {
			for _, b := range batchList {
				cfgs = append(cfgs, fuzz.Config{Store: st, Shards: sh, Batch: b})
			}
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)
	programs, racy, runs := 0, 0, 0
	lastLog := time.Now()
	for time.Now().Before(deadline) {
		p := fuzz.Gen(rng)
		scheds := make([]int64, *schedules)
		for i := 1; i < *schedules; i++ {
			scheds[i] = 1 + rng.Int63n(1<<31)
		}
		res, err := fuzz.Diff(p, scheds, cfgs)
		if err != nil {
			log.Fatalf("program #%d: %v", programs, err)
		}
		programs++
		runs += len(scheds) * len(cfgs)
		if res.Oracle.Raced() {
			racy++
		}
		if res.Failed() {
			fmt.Printf("program #%d diverged after %d clean programs:\n", programs-1, programs-1)
			for _, d := range res.Divergences {
				fmt.Printf("  %s\n", d)
			}
			min := fuzz.Minimize(p, func(q fuzz.Program) bool {
				r, err := fuzz.Diff(q, scheds, cfgs)
				return err == nil && r.Failed()
			})
			minRes, err := fuzz.Diff(min, scheds, cfgs)
			if err != nil {
				log.Fatal(err)
			}
			dir, err := fuzz.WriteRepro(*out, minRes)
			if err != nil {
				log.Fatalf("writing reproducer: %v", err)
			}
			fmt.Printf("minimised %d -> %d ops; reproducer written to %s\n",
				len(p.Ops), len(min.Ops), dir)
			fmt.Print(min.String())
			os.Exit(1)
		}
		if time.Since(lastLog) >= 5*time.Second {
			fmt.Printf("  ... %d programs (%d racy), %d differential runs, %s left\n",
				programs, racy, runs, time.Until(deadline).Round(time.Second))
			lastLog = time.Now()
		}
	}
	fmt.Printf("fuzzed %d programs (%d racy, %d race-free) x %d schedules x %d configs = %d differential runs: no divergences\n",
		programs, racy, programs-racy, *schedules, len(cfgs), runs)
}

// intList parses a comma-separated list of positive integers.
func intList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("value %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}
