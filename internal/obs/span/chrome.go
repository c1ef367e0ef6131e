package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace-event (the JSON array format) as
// Perfetto and chrome://tracing consume it. Timestamps and durations
// are microseconds; pid is the rank, tid the track within the rank.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   uint64            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// argNames maps a kind's A/B payload to human-readable arg keys.
func argNames(k Kind) (a, b string) {
	switch k {
	case KindEpoch:
		return "epoch", "targets"
	case KindPut, KindGet, KindAccum:
		return "target", "bytes"
	case KindFlush:
		return "target", ""
	case KindLocal:
		return "lo", "bytes"
	case KindNotifSend:
		return "target", "events"
	case KindNotifBatch:
		return "events", "epoch"
	}
	return "a", "b"
}

// events converts the snapshot into chrome trace events: per-rank
// process metadata, one "X" complete event per span, and "s"/"f" flow
// events for the causal edges. Records are ordered by timestamp then
// publication sequence so the output is stable for golden tests.
func (t *Tracer) events() []chromeEvent {
	recs := t.snapshot()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].rec.Start != recs[j].rec.Start {
			return recs[i].rec.Start < recs[j].rec.Start
		}
		if recs[i].rank != recs[j].rank {
			return recs[i].rank < recs[j].rank
		}
		return recs[i].seq < recs[j].seq
	})

	out := make([]chromeEvent, 0, len(recs)+2*t.Ranks())
	for rank := 0; rank < t.Ranks(); rank++ {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: rank,
			Args: map[string]string{"name": fmt.Sprintf("rank %d", rank)},
		})
	}
	for _, tr := range recs {
		rec := tr.rec
		aName, bName := argNames(rec.Kind)
		args := map[string]string{aName: fmt.Sprintf("%d", rec.A)}
		if bName != "" {
			args[bName] = fmt.Sprintf("%d", rec.B)
		}
		ts := float64(rec.Start) / 1e3
		ev := chromeEvent{
			Name: rec.Kind.String(),
			Cat:  "rma",
			Ph:   "X",
			Ts:   ts,
			Dur:  float64(rec.Dur) / 1e3,
			Pid:  tr.rank,
			Tid:  int(rec.Tid),
			Args: args,
		}
		// Perfetto drops zero-duration complete events from some tracks;
		// floor at a nanosecond so every span stays visible.
		if ev.Dur <= 0 {
			ev.Dur = 0.001
		}
		out = append(out, ev)
		// The flow event binds to the enclosing slice at the same
		// pid/tid/ts, which is exactly the span just emitted.
		switch rec.Phase {
		case FlowStart:
			out = append(out, chromeEvent{
				Name: "notif", Cat: "flow", Ph: "s", Ts: ts,
				Pid: tr.rank, Tid: int(rec.Tid), ID: rec.Flow,
			})
		case FlowFinish:
			out = append(out, chromeEvent{
				Name: "notif", Cat: "flow", Ph: "f", BP: "e", Ts: ts,
				Pid: tr.rank, Tid: int(rec.Tid), ID: rec.Flow,
			})
		}
	}
	return out
}

// WriteChromeTrace writes the tracer's spans as a Chrome trace-event
// JSON array, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("span: tracing was not enabled for this run")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.events())
}
