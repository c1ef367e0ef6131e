package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
)

func sampleEvent(lo, hi uint64, tp access.Type, rank int) detector.Event {
	return detector.Event{
		Acc: access.Access{
			Interval: interval.New(lo, hi),
			Type:     tp,
			Rank:     rank,
			Epoch:    3,
			Stack:    true,
			Debug:    access.Debug{File: "x.c", Line: 42},
		},
		Time:     7,
		CallTime: 7,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 4, Window: "X"})
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleEvent(2, 12, access.RMARead, 1)
	if err := w.Access(2, ev); err != nil {
		t.Fatal(err)
	}
	if err := w.EpochEnd(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header.Ranks != 4 || r.Header.Window != "X" {
		t.Fatalf("header = %+v", r.Header)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Event()
	if err != nil {
		t.Fatal(err)
	}
	// Event now carries an (uncomparable) vector-clock slice; traces
	// never serialise it, so compare with it stripped.
	if got.Clock != nil {
		t.Fatalf("replayed event carries a clock: %+v", got)
	}
	ev.Clock = nil
	if got.Acc != ev.Acc || got.Time != ev.Time || got.CallTime != ev.CallTime || got.Filtered != ev.Filtered {
		t.Fatalf("round trip: got %+v, want %+v", got, ev)
	}
	rec, err = r.Next()
	if err != nil || rec.Kind != "epoch_end" || rec.Owner != 1 {
		t.Fatalf("epoch record = %+v, err %v", rec, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsMissingHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader(`{"kind":"access"}`)); err == nil {
		t.Fatal("missing header accepted")
	}
}

func TestEventValidation(t *testing.T) {
	if _, err := (Record{Kind: "epoch_end"}).Event(); err == nil {
		t.Fatal("non-access record converted")
	}
	if _, err := (Record{Kind: "access", Type: "bogus", Hi: 1}).Event(); err == nil {
		t.Fatal("bogus type accepted")
	}
	if _, err := (Record{Kind: "access", Type: "rma_read", Lo: 5, Hi: 2}).Event(); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestGenerateSafeReplaysClean(t *testing.T) {
	var buf bytes.Buffer
	n, err := Generate(&buf, GenConfig{
		Ranks: 4, Events: 2000, Epochs: 3,
		Adjacency: 0.5, WriteFraction: 0.5, SafeOnly: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6000 {
		t.Fatalf("generated %d events", n)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil {
		t.Fatalf("safe trace raced: %v", res.Race)
	}
	if res.Events != 6000 || res.Epochs != 3 {
		t.Fatalf("replay stats %+v", res)
	}
	if res.MaxNodes <= 0 {
		t.Fatal("no nodes recorded")
	}
}

func TestGenerateAdjacencyAffectsMerging(t *testing.T) {
	replayNodes := func(adjacency float64) int {
		var buf bytes.Buffer
		if _, err := Generate(&buf, GenConfig{
			Ranks: 2, Events: 4000, Epochs: 1,
			Adjacency: adjacency, WriteFraction: 0.3, SafeOnly: true, Seed: 5,
		}); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Race != nil {
			t.Fatalf("race in safe trace: %v", res.Race)
		}
		return res.MaxNodes
	}
	high := replayNodes(0.95)
	low := replayNodes(0.05)
	if high >= low {
		t.Fatalf("adjacency should shrink the tree: adjacency .95 -> %d nodes, .05 -> %d", high, low)
	}
}

func TestReplayStopsAtRace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 2, Window: "X"})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Access(0, sampleEvent(0, 7, access.RMAWrite, 0))
	_ = w.Access(0, sampleEvent(0, 7, access.RMAWrite, 1))
	_ = w.Access(0, sampleEvent(100, 107, access.RMAWrite, 0)) // never reached
	_ = w.Flush()

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race == nil {
		t.Fatal("race not detected")
	}
	if res.Events != 2 {
		t.Fatalf("replay did not stop at the race: %d events", res.Events)
	}
}

func TestReplayPerRankAnalyzers(t *testing.T) {
	// Owner-private analyzers: records with different owners go to
	// different trees, so equal-address accesses of two owners do not
	// interact.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Ranks: 2, Window: "X"})
	_ = w.Access(0, sampleEvent(0, 7, access.LocalWrite, 0))
	_ = w.Access(1, sampleEvent(0, 7, access.LocalWrite, 1))
	_ = w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	res, err := ReplayStream(r, func(int) detector.Analyzer { count++; return core.New() }, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil {
		t.Fatalf("per-rank replay raced: %v", res.Race)
	}
	if count != 2 {
		t.Fatalf("expected 2 analyzers, got %d", count)
	}
}
