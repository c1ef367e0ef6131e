package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rmarace/internal/benchkit"
)

// TestMain lets a test run the command itself: with RMARACE_TEST_MAIN
// set, the test binary is rmarace.
func TestMain(m *testing.M) {
	if os.Getenv("RMARACE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStoreFlagRefusedForRMAAnalyzer: -store selects the contribution's
// backend, so replay and submit refuse it with -method rma-analyzer,
// exiting 1 with the reason before reading the trace or contacting a
// daemon, while replay still takes it for the contribution.
func TestStoreFlagRefusedForRMAAnalyzer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	body := `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":0,"rank":1,"lo":0,"hi":7,"type":"rma_write"}
{"kind":"epoch_end","owner":0}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "RMARACE_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	for _, args := range [][]string{
		{"replay", "-method", "rma-analyzer", "-store", "avl", path},
		{"submit", "-addr", "http://127.0.0.1:1", "-method", "rma-analyzer", "-store", "legacy", path},
	} {
		out, err := run(args...)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(out, "selects the contribution's backend") {
			t.Errorf("rmarace %s: %v, output %q; want exit 1 saying -store selects the contribution's backend", strings.Join(args, " "), err, out)
		}
	}
	if out, err := run("replay", "-store", "strided", path); err != nil {
		t.Errorf("rmarace replay -store strided: %v, output %q", err, out)
	}
}

// TestReplaySpansCapped: `replay -spans` keeps the daemon's span
// budget, so a two-line trace whose header declares 32,768 ranks exits
// 1 with the cap message instead of reserving a span ring per rank.
func TestReplaySpansCapped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	body := `{"kind":"header","ranks":32768,"window":"w"}
{"kind":"access","owner":0,"rank":1,"lo":0,"hi":7,"type":"rma_write"}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "replay", "-spans", filepath.Join(dir, "out.json"), path)
	cmd.Env = append(os.Environ(), "RMARACE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), "exceed the cap of 1048576 span slots") {
		t.Fatalf("rmarace replay -spans: %v, output %q; want exit 1 with the span cap message", err, out)
	}
}

// TestServeRefusesUnknownLogLevel: `serve -log-level` takes slog's
// level names, and an unknown one exits 1 before the daemon starts.
func TestServeRefusesUnknownLogLevel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "serve", "-addr", "127.0.0.1:0", "-log-level", "verbose")
	cmd.Env = append(os.Environ(), "RMARACE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), `level string "verbose"`) {
		t.Fatalf("rmarace serve -log-level verbose: %v, output %q; want exit 1 naming the level", err, out)
	}
}

// gatedReport is a snapshot that meets every `bench -check` gate: one
// row per gated series, plus a legacy insert row at the 3 allocs/op its
// store spends by design.
func gatedReport() benchkit.Report {
	return benchkit.Report{Results: []benchkit.Result{
		{Name: "insert/ours/adjacent"},
		{Name: "insert/legacy/adjacent", AllocsPerOp: 3},
		{Name: "notification-throughput/batch64"},
		{Name: "clock-mem/r256/adaptive", Metrics: map[string]float64{"reduction_x": 78.4}},
		{Name: "stack-depot/dedup", Metrics: map[string]float64{"entries": 32, "dedup_x": 312.5}},
		{Name: "trace-ingest/r256/bin", Metrics: map[string]float64{"speedup_x": 2.6}},
		{Name: "trace-rss/r256/growth", Metrics: map[string]float64{"rss_large_bytes": 5.8e6, "growth_x": 1.1}},
		{Name: "serve-agg/s64", Metrics: map[string]float64{"sessions": 64, "verdict_mismatches": 0}},
		{Name: "serve-quota/rejects", Metrics: map[string]float64{"quota_rejects": 1}},
	}}
}

// TestCheckBench: the gated report passes; breaking any one gate, or
// dropping the rows it reads, fails with one error naming the row.
func TestCheckBench(t *testing.T) {
	type edit func(t *testing.T, rep *benchkit.Report)
	row := func(t *testing.T, rep *benchkit.Report, name string) *benchkit.Result {
		for i := range rep.Results {
			if rep.Results[i].Name == name {
				return &rep.Results[i]
			}
		}
		t.Fatalf("no row %s", name)
		return nil
	}
	allocs := func(name string, n int64) edit {
		return func(t *testing.T, rep *benchkit.Report) { row(t, rep, name).AllocsPerOp = n }
	}
	metric := func(name, key string, v float64) edit {
		return func(t *testing.T, rep *benchkit.Report) { row(t, rep, name).Metrics[key] = v }
	}
	drop := func(names ...string) edit {
		return func(t *testing.T, rep *benchkit.Report) {
			rep.Results = slices.DeleteFunc(rep.Results, func(r benchkit.Result) bool { return slices.Contains(names, r.Name) })
		}
	}
	for _, tc := range []struct {
		name string
		edit edit
		want string // substring of the one error; "" passes
	}{
		{"every gate met", nil, ""},
		{"legacy insert allocates", allocs("insert/legacy/adjacent", 5), ""},
		{"ours insert allocates", allocs("insert/ours/adjacent", 1), "insert/ours/adjacent"},
		{"notification allocates", allocs("notification-throughput/batch64", 1), "notification-throughput/batch64"},
		{"hot rows missing", drop("insert/ours/adjacent", "notification-throughput/batch64"), "insert/ours/*"},
		{"clock reduction below 10x", metric("clock-mem/r256/adaptive", "reduction_x", 9.9), "clock-mem/r256/adaptive"},
		{"clock row missing", drop("clock-mem/r256/adaptive"), "clock-mem/*/adaptive"},
		{"depot interned nothing", metric("stack-depot/dedup", "entries", 0), "stack-depot/dedup"},
		{"depot dedup below 2x", metric("stack-depot/dedup", "dedup_x", 1.5), "stack-depot/dedup"},
		{"depot row missing", drop("stack-depot/dedup"), "stack-depot/dedup"},
		{"binary ingest below 2x", metric("trace-ingest/r256/bin", "speedup_x", 1.9), "trace-ingest/r256/bin"},
		{"ingest row missing", drop("trace-ingest/r256/bin"), "trace-ingest/*/bin"},
		{"no peak RSS", metric("trace-rss/r256/growth", "rss_large_bytes", 0), "trace-rss/r256/growth"},
		{"RSS growth above 2x", metric("trace-rss/r256/growth", "growth_x", 2.1), "trace-rss/r256/growth"},
		{"RSS row missing", drop("trace-rss/r256/growth"), "trace-rss/*"},
		{"serve completed nothing", metric("serve-agg/s64", "sessions", 0), "serve-agg/s64"},
		{"served verdict diverged", metric("serve-agg/s64", "verdict_mismatches", 1), "serve-agg/s64"},
		{"serve row missing", drop("serve-agg/s64"), "serve-agg/*"},
		{"no quota reject", metric("serve-quota/rejects", "quota_rejects", 0), "serve-quota/rejects"},
		{"quota row missing", drop("serve-quota/rejects"), "serve-quota/rejects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := gatedReport()
			if tc.edit != nil {
				tc.edit(t, &rep)
			}
			errs := checkBench(rep)
			if tc.want == "" {
				if len(errs) != 0 {
					t.Fatalf("checkBench failed a passing report: %v", errs)
				}
				return
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("checkBench = %v, want one error naming %s", errs, tc.want)
			}
		})
	}
}

// TestPostmortemOfTraceAndReportAgree: `rmarace postmortem` renders a
// trace and the report `replay -flight 64 -report` writes of it alike.
// Both mark all three accesses: the stored side of the race is the
// merge of rank 1's two accesses, which the raw entries only overlap.
func TestPostmortemOfTraceAndReportAgree(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	report := filepath.Join(dir, "r.json")
	body := `{"kind":"header","ranks":3,"window":"w"}
{"kind":"access","owner":0,"rank":1,"lo":0,"hi":7,"type":"rma_write","file":"m.c","line":1}
{"kind":"access","owner":0,"rank":1,"lo":8,"hi":15,"type":"rma_write","file":"m.c","line":1}
{"kind":"access","owner":0,"rank":2,"lo":4,"hi":11,"type":"rma_write","file":"m.c","line":2}
`
	if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) string {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "RMARACE_TEST_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("rmarace %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	// flight keeps the dump's entry lines, marked or not.
	flight := func(out string) []string {
		var lines []string
		for _, ln := range strings.Split(out, "\n") {
			if strings.Contains(ln, "  access  ") {
				lines = append(lines, ln)
			}
		}
		return lines
	}
	fromTrace := flight(run("postmortem", trace))
	run("replay", "-flight", "64", "-report", report, trace)
	fromReport := flight(run("postmortem", report))
	if !slices.Equal(fromTrace, fromReport) {
		t.Fatalf("postmortem of the trace:\n%s\nof its report:\n%s", strings.Join(fromTrace, "\n"), strings.Join(fromReport, "\n"))
	}
	if len(fromTrace) != 3 {
		t.Fatalf("%d access lines, want 3:\n%s", len(fromTrace), strings.Join(fromTrace, "\n"))
	}
	for _, ln := range fromTrace {
		if !strings.HasPrefix(ln, ">>") {
			t.Errorf("unmarked: %s", ln)
		}
	}
}
