package trace

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs/span"
)

// captureAnalyzer records the events it is fed; races never fire.
type captureAnalyzer struct {
	detector.Analyzer
	evs []detector.Event
}

func newCapture() *captureAnalyzer {
	return &captureAnalyzer{Analyzer: detector.NewBaseline()}
}

func (c *captureAnalyzer) Access(ev detector.Event) *detector.Race {
	c.evs = append(c.evs, ev)
	return nil
}

// TestReplayNormalisesTimestamps: records written with zero (or
// non-advancing) Time/CallTime replay with strictly monotonic per-rank
// timestamps, and CallTime is never zero or ahead of Time.
func TestReplayNormalisesTimestamps(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 2, Window: "W"})
	if err != nil {
		t.Fatal(err)
	}
	// All four records carry Time 0 — the degenerate trace a hand-written
	// or external generator produces.
	for i := 0; i < 4; i++ {
		ev := detector.Event{Acc: access.Access{
			Interval: interval.Span(uint64(i)*64, 8),
			Type:     access.RMAWrite,
			Rank:     i % 2,
		}}
		if err := w.Access(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := newCapture()
	res, err := ReplayStream(r, func(int) detector.Analyzer { return cap0 }, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 4 {
		t.Fatalf("replayed %d events, want 4", res.Events)
	}
	last := map[int]uint64{}
	for i, ev := range cap0.evs {
		if ev.Time <= last[ev.Acc.Rank] {
			t.Fatalf("event %d: rank %d time %d did not advance past %d", i, ev.Acc.Rank, ev.Time, last[ev.Acc.Rank])
		}
		if ev.CallTime == 0 || ev.CallTime > ev.Time {
			t.Fatalf("event %d: call time %d vs time %d", i, ev.CallTime, ev.Time)
		}
		last[ev.Acc.Rank] = ev.Time
	}
}

// TestRoundTripMonotonic: a generated trace keeps strictly increasing
// per-rank timestamps through write + replay.
func TestRoundTripMonotonic(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Generate(&buf, GenConfig{Ranks: 4, Events: 200, Epochs: 3, Adjacency: 0.5, SafeOnly: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	capd := newCapture()
	if _, err := ReplayStream(r, func(int) detector.Analyzer { return capd }, ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	last := map[int]uint64{}
	for i, ev := range capd.evs {
		if ev.Time <= last[ev.Acc.Rank] {
			t.Fatalf("event %d: rank %d timestamp %d not monotonic (last %d)", i, ev.Acc.Rank, ev.Time, last[ev.Acc.Rank])
		}
		last[ev.Acc.Rank] = ev.Time
	}
}

// TestPlantedRaceCarriesFlightLog: replaying a racy generated trace
// with the flight recorder on yields a race whose flight log contains
// both conflicting accesses.
func TestPlantedRaceCarriesFlightLog(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Generate(&buf, GenConfig{Ranks: 2, Events: 50, Epochs: 2, Adjacency: 0.5, SafeOnly: true, PlantRace: true, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{FlightN: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race == nil {
		t.Fatal("planted race was not detected")
	}
	if len(res.Race.FlightLog) == 0 {
		t.Fatal("race carries no flight log")
	}
	found := 0
	for _, e := range res.Race.FlightLog {
		if e.Kind == detector.FlightAccess && e.Acc.Lo == plantedLo {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("flight log holds %d planted accesses, want both", found)
	}
}

// TestReplaySpansExport: a replay with a logical tracer exports valid
// Chrome trace-event JSON containing access and epoch spans.
func TestReplaySpansExport(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Generate(&buf, GenConfig{Ranks: 2, Events: 20, Epochs: 2, Adjacency: 0.5, SafeOnly: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewLogicalTracer(r.Header.Ranks, 1<<10)
	if _, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{Spans: tr}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(out.Bytes(), &events); err != nil {
		t.Fatalf("span export is not a JSON event array: %v", err)
	}
	var accessSpans, epochSpans int
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "epoch":
			epochSpans++
		default:
			accessSpans++
		}
	}
	if accessSpans == 0 || epochSpans != 2 {
		t.Fatalf("got %d access spans and %d epoch spans, want >0 and 2", accessSpans, epochSpans)
	}
}

// TestReplayLogCarriesCallerAttrs: the replay loop logs through the
// logger it is given, so attributes the caller bound with
// slog.Logger.With ride on its lines (the daemon binds tenant and
// session this way); a logger above Debug gets no line.
func TestReplayLogCarriesCallerAttrs(t *testing.T) {
	replay := func(level slog.Level, safe bool) *bytes.Buffer {
		var src, logs bytes.Buffer
		if _, err := Generate(&src, GenConfig{Ranks: 2, Events: 50, Epochs: 2, Adjacency: 0.5, SafeOnly: true, PlantRace: !safe, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&src)
		if err != nil {
			t.Fatal(err)
		}
		log := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: level})).With("tenant", "acme", "session", "s-000007")
		if _, err := ReplayStream(r, func(int) detector.Analyzer { return core.New() }, ReplayOpts{Log: log}); err != nil {
			t.Fatal(err)
		}
		return &logs
	}

	for _, tc := range []struct {
		safe bool
		msg  string
	}{{false, "race detected"}, {true, "replay drained"}} {
		logs := replay(slog.LevelDebug, tc.safe)
		var lines []map[string]any
		dec := json.NewDecoder(bytes.NewReader(logs.Bytes()))
		for dec.More() {
			var m map[string]any
			if err := dec.Decode(&m); err != nil {
				t.Fatalf("log line is not JSON: %v\n%s", err, logs.String())
			}
			lines = append(lines, m)
		}
		found := false
		for _, ln := range lines {
			if ln["tenant"] != "acme" || ln["session"] != "s-000007" || ln["level"] != "DEBUG" {
				t.Errorf("replay line = %v, want a DEBUG line of tenant acme, session s-000007", ln)
			}
			found = found || ln["msg"] == tc.msg
		}
		if !found {
			t.Errorf("no %q line in the log:\n%s", tc.msg, logs.String())
		}
	}
	if logs := replay(slog.LevelInfo, false); logs.Len() != 0 {
		t.Errorf("an Info-level logger got replay lines:\n%s", logs.String())
	}
}
