package trace

import (
	"bytes"
	"encoding/json"
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
