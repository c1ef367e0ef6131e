package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ReportSchema identifies the run-report JSON schema. Consumers
// (rmarace stats, the CI validation step) reject other values, so the
// version bumps whenever a field changes meaning.
const ReportSchema = "rmarace/run-report/v1"

// RunReport is the structured summary of one analysed run — a live
// instrumented execution, a trace replay or a benchmark workload. It
// is the shared schema of `rmarace replay -report`, `rmarace stats`
// and the run sections of BENCH_*.json.
type RunReport struct {
	Schema string `json:"schema"`
	// Source says what produced the report: "run", "replay" or "bench".
	Source string `json:"source,omitempty"`
	Method string `json:"method,omitempty"`
	Ranks  int    `json:"ranks,omitempty"`
	// Events counts analysed access events; Epochs completed epochs.
	Events int64 `json:"events,omitempty"`
	Epochs int64 `json:"epochs,omitempty"`
	// MaxNodes is the BST high-water aggregate (Table 4).
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Windows breaks the analysis footprint down per window.
	Windows []WindowReport `json:"windows,omitempty"`
	// EpochLatency summarises the per-rank epoch-duration histogram.
	EpochLatency []LatencySummary `json:"epoch_latency,omitempty"`
	// Metrics is the full registry snapshot.
	Metrics []MetricSnapshot `json:"metrics,omitempty"`
	// Races lists detected races with full provenance; the Message of
	// each is the byte-identical Fig. 9 line.
	Races []RaceReport `json:"races,omitempty"`
}

// WindowReport is one window's analysis footprint.
type WindowReport struct {
	Name            string  `json:"name"`
	PerRankMaxNodes []int   `json:"per_rank_max_nodes,omitempty"`
	TotalMaxNodes   int     `json:"total_max_nodes"`
	Accesses        uint64  `json:"accesses"`
	PerRankReceived []int64 `json:"per_rank_received,omitempty"`
	// PerRankOverflows counts notification sends per rank that found
	// the channel full and blocked (backpressure; nothing dropped).
	PerRankOverflows []int64 `json:"per_rank_overflows,omitempty"`
}

// LatencySummary condenses one label's histogram for quick reading.
type LatencySummary struct {
	Label     int   `json:"label"`
	Count     int64 `json:"count"`
	MeanNanos int64 `json:"mean_nanos"`
	MaxNanos  int64 `json:"max_nanos"`
}

// MetricSnapshot is one metric's full series in the report.
type MetricSnapshot struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	LabelDim string        `json:"label_dim,omitempty"`
	Series   []SeriesPoint `json:"series"`
}

// SeriesPoint is one label's value within a metric. For histograms,
// Value is the sample count and Sum/Max/Buckets describe the
// distribution.
type SeriesPoint struct {
	Label int `json:"label"`
	// LabelName, when set, is the resolved human name behind the
	// integer label (e.g. the tenant name behind a serve_* metric's
	// interned tenant id). The Prometheus renderer prefers it over the
	// numeric label, escaping it per the exposition spec.
	LabelName string        `json:"label_name,omitempty"`
	Value     int64         `json:"value"`
	Sum       int64         `json:"sum,omitempty"`
	Max       int64         `json:"max,omitempty"`
	Buckets   []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty power-of-two histogram bucket.
type BucketCount struct {
	// Low is the bucket's inclusive lower bound.
	Low   int64 `json:"low"`
	Count int64 `json:"count"`
}

// RaceReport is one detected race with full provenance: the Fig. 9
// line plus everything a user needs to act on the verdict.
type RaceReport struct {
	// Message is the paper-exact Fig. 9 report line, byte-identical to
	// detector.Race.Message.
	Message string `json:"message"`
	Window  string `json:"window,omitempty"`
	// Owner is the rank whose analyzer detected the race (the window
	// owner of the conflicting region).
	Owner int `json:"owner"`
	// Shard is the address-space shard that held the conflict, -1 for
	// an unsharded analyzer.
	Shard int          `json:"shard"`
	Prev  AccessReport `json:"prev"`
	Cur   AccessReport `json:"cur"`
	// Flight is the owning analyzer's flight-recorder snapshot at the
	// moment of detection, oldest first — the last N accesses and
	// synchronisations that led up to the verdict. Present only when
	// the run enabled the flight recorder.
	Flight []FlightEntryReport `json:"flight,omitempty"`
}

// FlightEntryReport is one flight-recorder event in a race report: an
// analysed access (Acc set) or a synchronisation marker
// (epoch_end/flush/release/sync, Origin set).
type FlightEntryReport struct {
	Seq    uint64        `json:"seq"`
	Kind   string        `json:"kind"`
	Origin int           `json:"origin,omitempty"`
	Acc    *AccessReport `json:"acc,omitempty"`
}

// AccessReport is one side of a race: the access's identity and its
// captured call stack when stack capture was enabled.
type AccessReport struct {
	Rank     int    `json:"rank"`
	Epoch    uint64 `json:"epoch"`
	Type     string `json:"type"`
	Lo       uint64 `json:"lo"`
	Hi       uint64 `json:"hi"`
	Location string `json:"location"` // file:line debug info
	Stack    string `json:"stack,omitempty"`
}

// EpochLatencyFromRegistry derives the per-rank epoch-latency
// summaries from reg's EpochNanos histogram.
func EpochLatencyFromRegistry(reg *Registry) []LatencySummary {
	p := reg.series[EpochNanos].Load()
	if p == nil {
		return nil
	}
	var out []LatencySummary
	for label, s := range *p {
		count := s.val.Load()
		if count == 0 {
			continue
		}
		out = append(out, LatencySummary{
			Label:     label,
			Count:     count,
			MeanNanos: s.sum.Load() / count,
			MaxNanos:  s.max.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes and validates a run report.
func ReadReport(rd io.Reader) (*RunReport, error) {
	var r RunReport
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: decoding run report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the report against the schema: known schema string,
// known metric names whose kinds match the inventory, coherent series
// and race entries.
func (r *RunReport) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("obs: report schema %q, want %q", r.Schema, ReportSchema)
	}
	for _, ms := range r.Metrics {
		m, ok := MetricByName(ms.Name)
		if !ok {
			return fmt.Errorf("obs: unknown metric %q", ms.Name)
		}
		if got, want := ms.Kind, m.Kind().String(); got != want {
			return fmt.Errorf("obs: metric %q has kind %q, want %q", ms.Name, got, want)
		}
		if len(ms.Series) == 0 {
			return fmt.Errorf("obs: metric %q has an empty series", ms.Name)
		}
		for _, pt := range ms.Series {
			if pt.Label < 0 {
				return fmt.Errorf("obs: metric %q has negative label %d", ms.Name, pt.Label)
			}
			if pt.Value < 0 && m.Kind() != KindGauge {
				return fmt.Errorf("obs: metric %q label %d has negative value %d", ms.Name, pt.Label, pt.Value)
			}
		}
	}
	for i, rc := range r.Races {
		if rc.Message == "" {
			return fmt.Errorf("obs: race %d has no message", i)
		}
		if rc.Shard < -1 {
			return fmt.Errorf("obs: race %d has shard %d", i, rc.Shard)
		}
		if rc.Prev.Type == "" || rc.Cur.Type == "" {
			return fmt.Errorf("obs: race %d is missing an access type", i)
		}
		for j, fe := range rc.Flight {
			if fe.Kind == "" {
				return fmt.Errorf("obs: race %d flight entry %d has no kind", i, j)
			}
			if fe.Kind == "access" && fe.Acc == nil {
				return fmt.Errorf("obs: race %d flight entry %d is an access without one", i, j)
			}
		}
	}
	for _, w := range r.Windows {
		if w.Name == "" {
			return fmt.Errorf("obs: window report without a name")
		}
	}
	return nil
}

// Summary writes a human-readable digest of the report — the
// `rmarace stats` output.
func (r *RunReport) Summary(w io.Writer) {
	fmt.Fprintf(w, "run report (%s)  method=%s  ranks=%d\n", orDash(r.Source), orDash(r.Method), r.Ranks)
	if r.Events > 0 || r.Epochs > 0 || r.MaxNodes > 0 {
		fmt.Fprintf(w, "  events=%d  epochs=%d  max nodes=%d\n", r.Events, r.Epochs, r.MaxNodes)
	}
	for _, win := range r.Windows {
		fmt.Fprintf(w, "  window %-12s total max nodes=%-8d accesses=%d\n", win.Name, win.TotalMaxNodes, win.Accesses)
		if len(win.PerRankReceived) > 0 {
			fmt.Fprintf(w, "    received per rank:  %v\n", win.PerRankReceived)
		}
		if len(win.PerRankOverflows) > 0 && sum64(win.PerRankOverflows) > 0 {
			fmt.Fprintf(w, "    overflows per rank: %v\n", win.PerRankOverflows)
		}
	}
	for _, el := range r.EpochLatency {
		fmt.Fprintf(w, "  epoch latency rank %-3d count=%-5d mean=%-12v max=%v\n",
			el.Label, el.Count, time.Duration(el.MeanNanos), time.Duration(el.MaxNanos))
	}
	for _, ms := range r.Metrics {
		var total, max int64
		for _, pt := range ms.Series {
			total += pt.Value
			if pt.Value > max {
				max = pt.Value
			}
		}
		fmt.Fprintf(w, "  metric %-22s %-10s labels=%-3d total=%-10d max=%d\n",
			ms.Name, ms.Kind, len(ms.Series), total, max)
	}
	if len(r.Races) == 0 {
		fmt.Fprintf(w, "  no races detected\n")
		return
	}
	for i, rc := range r.Races {
		fmt.Fprintf(w, "  RACE %d: %s\n", i, rc.Message)
		fmt.Fprintf(w, "    window=%s owner=%d shard=%d\n", orDash(rc.Window), rc.Owner, rc.Shard)
		writeAccess(w, "prev", rc.Prev)
		writeAccess(w, "cur ", rc.Cur)
		if len(rc.Flight) > 0 {
			fmt.Fprintf(w, "    flight recorder: %d events leading up to the verdict (render with `rmarace postmortem`)\n", len(rc.Flight))
		}
	}
}

// WriteFlight renders the race's flight-recorder snapshot as the human
// postmortem dump: one line per retained event, oldest first, each
// access followed by its call stack when one was captured. Every access
// that could be one side of the race is marked ">>": its rank, epoch,
// type and location equal a side's and its interval overlaps that
// side's, so an access the verdict holds only a fragment or a merge of
// is marked too. It reads the serialised form, so a live race
// (rma.RaceReport) and a report file render alike.
func (rc *RaceReport) WriteFlight(w io.Writer) {
	for _, fe := range rc.Flight {
		a := fe.Acc
		if a == nil {
			fmt.Fprintf(w, "   %6d  %-11s origin=%d\n", fe.Seq, fe.Kind, fe.Origin)
			continue
		}
		marker := "  "
		if a.overlapsSide(rc.Prev) || a.overlapsSide(rc.Cur) {
			marker = ">>"
		}
		fmt.Fprintf(w, "%s %6d  %-11s %-11s [%d..%d] rank=%d epoch=%d at %s\n",
			marker, fe.Seq, fe.Kind, a.Type, a.Lo, a.Hi, a.Rank, a.Epoch, a.Location)
		if a.Stack != "" {
			fmt.Fprintf(w, "%s         stack: %s\n", marker, a.Stack)
		}
	}
}

// overlapsSide reports whether a has side's rank, epoch, type and
// location and overlaps its interval.
func (a *AccessReport) overlapsSide(side AccessReport) bool {
	return a.Rank == side.Rank && a.Epoch == side.Epoch && a.Type == side.Type &&
		a.Location == side.Location && a.Lo <= side.Hi && side.Lo <= a.Hi
}

func writeAccess(w io.Writer, side string, a AccessReport) {
	fmt.Fprintf(w, "    %s: %s [%d..%d] rank=%d epoch=%d at %s\n", side, a.Type, a.Lo, a.Hi, a.Rank, a.Epoch, a.Location)
	if a.Stack != "" {
		fmt.Fprintf(w, "      stack: %s\n", a.Stack)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
