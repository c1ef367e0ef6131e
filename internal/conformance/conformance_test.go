package conformance

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rmarace/internal/detector"
	"rmarace/internal/fuzz"
	"rmarace/internal/oracle"
)

// TestCorpusShape pins the corpus invariants the issue asks for: at
// least 60 cases over at least 6 categories, every category holding
// both safe and racy variants, unique names, and labels that are
// internally consistent (racy iff pairs are labeled, pairs canonical).
func TestCorpusShape(t *testing.T) {
	cases := Corpus()
	if len(cases) < 60 {
		t.Fatalf("corpus has %d cases, want >= 60", len(cases))
	}
	names := map[string]bool{}
	type catStat struct{ racy, safe int }
	cats := map[string]*catStat{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate case name %s", c.Name)
		}
		names[c.Name] = true
		if !strings.HasPrefix(c.Name, c.Category[:4]) && !strings.HasPrefix(c.Name, c.Category) {
			// Names are prefixed by their category for greppability; the
			// lockchain/atomicmix categories abbreviate.
			switch c.Category {
			case CatLock, CatAtomic:
			default:
				t.Errorf("%s: name does not announce category %s", c.Name, c.Category)
			}
		}
		st := cats[c.Category]
		if st == nil {
			st = &catStat{}
			cats[c.Category] = st
		}
		if c.Racy {
			st.racy++
		} else {
			st.safe++
		}
		if c.Racy != (len(c.Pairs) > 0) {
			t.Errorf("%s: racy=%v but %d labeled pairs", c.Name, c.Racy, len(c.Pairs))
		}
		for _, p := range c.Pairs {
			if p[0] >= p[1] {
				t.Errorf("%s: pair %v not in canonical order", c.Name, p)
			}
		}
		switch c.Kind {
		case KindRemote, KindLocal, KindAtomic:
		default:
			t.Errorf("%s: unknown kind %q", c.Name, c.Kind)
		}
		if len(c.AccessSet()) == 0 {
			t.Errorf("%s: empty access set", c.Name)
		}
	}
	if len(cats) < 6 {
		t.Fatalf("corpus has %d categories, want >= 6 (%v)", len(cats), cats)
	}
	for cat, st := range cats {
		if st.racy == 0 || st.safe == 0 {
			t.Errorf("category %s lacks a variant: %d racy, %d safe", cat, st.racy, st.safe)
		}
	}
	for _, cat := range Categories() {
		if cats[cat] == nil {
			t.Errorf("declared category %s has no cases", cat)
		}
	}
}

// oraclePairs extracts the oracle's verdict set as sorted line pairs.
func oraclePairs(o *oracle.Oracle) [][2]int {
	var out [][2]int
	for _, k := range o.Keys() {
		a, b := k.A.Line, k.B.Line
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]int{a, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestOracleAgreesWithLabels is the label cross-check: for every case,
// under several schedules, the reference oracle's verdict must match
// the label and its verdict set must be exactly the labeled pairs —
// no more, no fewer. A corpus case whose label drifts from the model
// fails here before it can poison the scored baseline.
func TestOracleAgreesWithLabels(t *testing.T) {
	scheds := []int64{0, 7, 13}
	for _, c := range Corpus() {
		var first *oracle.Oracle
		for _, seed := range scheds {
			o, err := oracle.FromRecords(fuzz.Render(c.Program, seed))
			if err != nil {
				t.Fatalf("%s sched %d: %v", c.Name, seed, err)
			}
			if o.Raced() != c.Racy {
				t.Errorf("%s sched %d: oracle raced=%v, label says %v\n%s",
					c.Name, seed, o.Raced(), c.Racy, c.Program)
				continue
			}
			gotPairs := oraclePairs(o)
			wantPairs := append([][2]int(nil), c.Pairs...)
			sort.Slice(wantPairs, func(i, j int) bool {
				if wantPairs[i][0] != wantPairs[j][0] {
					return wantPairs[i][0] < wantPairs[j][0]
				}
				return wantPairs[i][1] < wantPairs[j][1]
			})
			if len(gotPairs) != len(wantPairs) {
				t.Errorf("%s sched %d: oracle found pairs %v, labeled %v\n%s",
					c.Name, seed, gotPairs, wantPairs, c.Program)
				continue
			}
			for i := range gotPairs {
				if gotPairs[i] != wantPairs[i] {
					t.Errorf("%s sched %d: oracle pair %v, labeled %v", c.Name, seed, gotPairs[i], wantPairs[i])
				}
			}
			if first == nil {
				first = o
			} else if !first.SameVerdicts(o) {
				t.Errorf("%s: verdict set differs between schedules", c.Name)
			}
		}
	}
}

// TestGatedConfigsPerfect is the headline acceptance gate: every
// gated configuration — the contribution across all store backends,
// shard counts and batch sizes — must score precision = recall = 1.0
// on every category, and every racy verdict must name the labeled
// call-site pair.
func TestGatedConfigsPerfect(t *testing.T) {
	cases := Corpus()
	var gated []Config
	for _, cfg := range Configs() {
		if cfg.Gated {
			gated = append(gated, cfg)
		}
	}
	if len(gated) < 12 {
		t.Fatalf("only %d gated configs, want >= 12", len(gated))
	}
	outs, err := Run(cases, gated)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outs {
		if out.Total.FP != 0 || out.Total.FN != 0 || out.Total.WrongPair != 0 {
			t.Errorf("%s: FP=%d FN=%d wrong-pair=%d; mismatches:\n  %s",
				out.Config.Name, out.Total.FP, out.Total.FN, out.Total.WrongPair,
				strings.Join(out.Mismatches, "\n  "))
		}
		for cat, sc := range out.ByCategory {
			if sc.Precision() != 1 || sc.Recall() != 1 {
				t.Errorf("%s %s: P=%.4f R=%.4f", out.Config.Name, cat, sc.Precision(), sc.Recall())
			}
		}
	}
}

// TestReferenceToolsImperfect proves the gate has teeth: the legacy
// published-tool configuration must still fail somewhere on this
// corpus (the Fig. 5 lower-bound canary at minimum, and the
// request-completion cases it has no notion of), so a change that
// accidentally routed the contribution through the legacy path would
// show up as a scored difference, not silence.
func TestReferenceToolsImperfect(t *testing.T) {
	cases := Corpus()
	outs, err := Run(cases, []Config{
		{Name: "rma-analyzer", Method: detector.RMAAnalyzer, Store: "", Shards: 1, Batch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := outs[0]
	if legacy.Total.FP == 0 && legacy.Total.FN == 0 {
		t.Fatalf("legacy canary scored perfectly; the corpus lost its discriminating cases")
	}
	// The Fig. 5 shape specifically must stay missed.
	canary := findCase(t, cases, "fence-lowerbound-miss-race")
	race, err := Replay(canary, legacy.Config)
	if err != nil {
		t.Fatal(err)
	}
	if race != nil {
		t.Errorf("legacy tool detected the lower-bound canary; it should miss it")
	}
}

func findCase(t *testing.T, cases []Case, name string) Case {
	t.Helper()
	for _, c := range cases {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("case %s missing", name)
	return Case{}
}

// TestReportRoundTrip: building, serialising and re-loading the
// baseline is lossless enough for the gate, and a run gates cleanly
// against its own report.
func TestReportRoundTrip(t *testing.T) {
	cases := Corpus()
	cfgs := []Config{
		{Name: "our/avl/s1/b1", Method: detector.OurContribution, Store: "avl", Shards: 1, Batch: 1, Gated: true},
		{Name: "rma-analyzer", Method: detector.RMAAnalyzer, Store: "", Shards: 1, Batch: 1},
	}
	outs, err := Run(cases, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(cases, outs)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/CONFORMANCE.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Gate(loaded, rep); len(regs) != 0 {
		t.Errorf("self-gate regressions: %v", regs)
	}
	// Sanity: the table writer covers every config and category.
	var tbl bytes.Buffer
	WriteTable(&tbl, rep)
	for _, cfg := range cfgs {
		if !strings.Contains(tbl.String(), cfg.Name) {
			t.Errorf("table missing config %s", cfg.Name)
		}
	}
}

// TestGateDetectsRegression doctors a baseline to demand a better F1
// than the current run achieves and expects the gate to fire, plus
// the missing-config and missing-category failure modes.
func TestGateDetectsRegression(t *testing.T) {
	base := &Report{Schema: Schema, Categories: []string{CatFence}, Configs: []ConfigReport{{
		Name: "our/avl/s1/b1", Gated: true,
		Total:      Metrics{F1: 1},
		Categories: map[string]Metrics{CatFence: {F1: 1}, CatLock: {F1: 1}},
	}}}
	cur := &Report{Schema: Schema, Categories: []string{CatFence}, Configs: []ConfigReport{{
		Name: "our/avl/s1/b1", Gated: true,
		Total:      Metrics{F1: 0.9},
		Categories: map[string]Metrics{CatFence: {F1: 0.8}},
	}}}
	regs := Gate(base, cur)
	if len(regs) != 3 { // total drop, fence drop, lockchain missing
		t.Fatalf("want 3 regressions, got %d: %v", len(regs), regs)
	}
	if regs2 := Gate(base, &Report{Schema: Schema}); len(regs2) != 1 {
		t.Fatalf("missing config should be 1 regression, got %v", regs2)
	}
	// Improvement passes.
	better := &Report{Schema: Schema, Configs: []ConfigReport{{
		Name:       "our/avl/s1/b1",
		Total:      Metrics{F1: 1},
		Categories: map[string]Metrics{CatFence: {F1: 1}, CatLock: {F1: 1}},
	}}}
	if regs3 := Gate(base, better); len(regs3) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs3)
	}
}

// TestCorpusProgramsRoundTripCodec feeds every corpus program through
// the fuzz byte codec: a conformance case must be shareable as a seed
// (the differential fuzzer's native corpus format) without loss.
func TestCorpusProgramsRoundTripCodec(t *testing.T) {
	for _, c := range Corpus() {
		got := fuzz.Decode(fuzz.Encode(c.Program))
		if !reflect.DeepEqual(got, c.Program) {
			t.Errorf("%s: decode(encode) != program\n got %+v\nwant %+v", c.Name, got, c.Program)
		}
	}
}

// TestCommittedBaselineCurrent keeps CONFORMANCE.json honest: the
// committed baseline must gate cleanly against a fresh full run, and
// its headline facts (case count, schema) must match the corpus. A
// detector improvement that raises scores fails here until the
// baseline is regenerated (go run ./cmd/rmarace conformance -out
// CONFORMANCE.json), which is exactly the review moment the gate
// exists to force.
func TestCommittedBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus x config sweep")
	}
	baseline, err := LoadReport("../../CONFORMANCE.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	cases := Corpus()
	if baseline.Cases != len(cases) {
		t.Fatalf("baseline covers %d cases, corpus has %d: regenerate CONFORMANCE.json", baseline.Cases, len(cases))
	}
	outs, err := Run(cases, Configs())
	if err != nil {
		t.Fatal(err)
	}
	cur := BuildReport(cases, outs)
	if regs := Gate(baseline, cur); len(regs) != 0 {
		t.Errorf("current run regresses the committed baseline:\n  %s", strings.Join(regs, "\n  "))
	}
	// The reverse direction catches silent improvements (and any drift
	// in the committed numbers): gating the baseline against the fresh
	// run must be clean too, i.e. the file matches reality exactly.
	if regs := Gate(cur, baseline); len(regs) != 0 {
		t.Errorf("committed baseline is stale (scores improved): regenerate CONFORMANCE.json\n  %s",
			strings.Join(regs, "\n  "))
	}
}
