package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleReport() *RunReport {
	reg := NewRegistry()
	reg.Add(EngineReceived, 0, 100)
	reg.Add(EngineReceived, 1, 120)
	reg.Add(EngineOverflows, 1, 2)
	reg.SetMax(StoreNodes, 0, 40)
	reg.Observe(EpochNanos, 0, 1500)
	reg.Observe(EpochNanos, 0, 2500)
	return &RunReport{
		Schema: ReportSchema,
		Source: "run",
		Method: "Our Contribution",
		Ranks:  2,
		Events: 220,
		Epochs: 2,
		Windows: []WindowReport{{
			Name:             "X",
			PerRankMaxNodes:  []int{40, 38},
			TotalMaxNodes:    78,
			Accesses:         220,
			PerRankReceived:  []int64{100, 120},
			PerRankOverflows: []int64{0, 2},
		}},
		EpochLatency: EpochLatencyFromRegistry(reg),
		Metrics:      reg.Snapshot(),
		Races: []RaceReport{{
			Message: "Error when inserting memory access ...",
			Window:  "X",
			Owner:   1,
			Shard:   -1,
			Prev:    AccessReport{Rank: 0, Epoch: 1, Type: "RMA_Write", Lo: 2, Hi: 11, Location: "main.c:3", Stack: "main.body (main.c:3)"},
			Cur:     AccessReport{Rank: 0, Epoch: 1, Type: "Local_Write", Lo: 7, Hi: 7, Location: "main.c:4", Stack: "main.body (main.c:4)"},
		}},
	}
}

// TestReportRoundTrip is the report-schema round-trip test: a report
// survives WriteJSON -> ReadReport (which validates) unchanged.
func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\n before %+v\n after  %+v", rep, back)
	}
}

func TestEpochLatencyFromRegistry(t *testing.T) {
	rep := sampleReport()
	if len(rep.EpochLatency) != 1 {
		t.Fatalf("epoch latency entries = %d, want 1", len(rep.EpochLatency))
	}
	el := rep.EpochLatency[0]
	if el.Label != 0 || el.Count != 2 || el.MeanNanos != 2000 || el.MaxNanos != 2500 {
		t.Errorf("bad latency summary: %+v", el)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunReport)
	}{
		{"wrong schema", func(r *RunReport) { r.Schema = "rmarace/run-report/v0" }},
		{"unknown metric", func(r *RunReport) { r.Metrics[0].Name = "bogus" }},
		{"kind mismatch", func(r *RunReport) { r.Metrics[0].Kind = "histogram" }},
		{"empty series", func(r *RunReport) { r.Metrics[0].Series = nil }},
		{"negative label", func(r *RunReport) { r.Metrics[0].Series[0].Label = -1 }},
		{"race without message", func(r *RunReport) { r.Races[0].Message = "" }},
		{"race bad shard", func(r *RunReport) { r.Races[0].Shard = -2 }},
		{"race missing type", func(r *RunReport) { r.Races[0].Cur.Type = "" }},
		{"anonymous window", func(r *RunReport) { r.Windows[0].Name = "" }},
	}
	for _, c := range cases {
		rep := sampleReport()
		c.mutate(rep)
		if err := rep.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad report", c.name)
		}
	}
	if err := sampleReport().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestReadReportRejectsUnknownFields(t *testing.T) {
	_, err := ReadReport(strings.NewReader(`{"schema":"` + ReportSchema + `","bogus_field":1}`))
	if err == nil {
		t.Error("unknown top-level field accepted")
	}
}

func TestSummaryMentionsKeyFacts(t *testing.T) {
	var buf bytes.Buffer
	sampleReport().Summary(&buf)
	out := buf.String()
	for _, want := range []string{
		"method=Our Contribution",
		"window X",
		"received per rank",
		"epoch latency rank 0",
		"engine_received",
		"RACE 0",
		"owner=1 shard=-1",
		"stack: main.body (main.c:3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFlightMarksConflict: the postmortem dump marks every access
// that could be one side of the verdict — equal rank, epoch, type and
// location, overlapping interval — including the pieces a merged side
// was built from and the whole of an access the side holds only a
// fragment of, prints each captured stack under its access, and leaves
// other accesses and synchronisation markers unmarked.
func TestWriteFlightMarksConflict(t *testing.T) {
	acc := func(lo, hi uint64, rank, line int, stack string) *AccessReport {
		return &AccessReport{Rank: rank, Epoch: 1, Type: "RMA_Write", Lo: lo, Hi: hi,
			Location: "f.c:" + strconv.Itoa(line), Stack: stack}
	}
	rc := RaceReport{
		// Prev is the merge of the accesses at seq 1 and 2; Cur is the
		// part of the access at seq 5 the verdict names.
		Prev: *acc(64, 79, 0, 666, ""),
		Cur:  *acc(72, 79, 1, 667, "main.go:9"),
		Flight: []FlightEntryReport{
			{Seq: 0, Kind: "access", Acc: acc(0, 7, 0, 666, "")},   // same site, no overlap
			{Seq: 1, Kind: "access", Acc: acc(64, 71, 0, 666, "")}, // merged into Prev
			{Seq: 2, Kind: "access", Acc: acc(72, 79, 0, 666, "")}, // merged into Prev
			{Seq: 3, Kind: "epoch_end", Origin: 0},
			{Seq: 4, Kind: "access", Acc: acc(64, 71, 0, 100, "")}, // overlaps, other line
			{Seq: 5, Kind: "access", Acc: acc(64, 95, 1, 667, "main.go:9")},
			{Seq: 6, Kind: "access", Acc: acc(72, 79, 2, 667, "")}, // overlaps, other rank
		},
	}
	var sb strings.Builder
	rc.WriteFlight(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	var marked []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, ">>") {
			marked = append(marked, strings.Fields(ln)[1])
		}
	}
	if want := []string{"1", "2", "5", "stack:"}; !reflect.DeepEqual(marked, want) {
		t.Fatalf("marked %v, want %v:\n%s", marked, want, sb.String())
	}
	if len(lines) != 8 || !strings.Contains(lines[3], "epoch_end") || !strings.HasSuffix(lines[6], "stack: main.go:9") {
		t.Fatalf("dump lines:\n%s", sb.String())
	}
}
