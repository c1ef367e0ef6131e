package detector_test

import (
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/rma"
)

// The postmortem dump of a detector.Race is rendered from its report
// form (rma.RaceReport, then obs.RaceReport.WriteFlight); these tests
// drive that path from detector values, so the conversion keeps what
// the conflict markers compare.

func renderAcc(lo, n uint64, rank, line int) access.Access {
	return access.Access{
		Interval: interval.Span(lo, n),
		Type:     access.RMAWrite,
		Rank:     rank,
		Epoch:    1,
		Debug:    access.Debug{File: "f.c", Line: line},
	}
}

// markedLines renders race's flight snapshot and returns its lines and
// the indices of those marked ">>".
func markedLines(t *testing.T, race *detector.Race) ([]string, []int) {
	t.Helper()
	rc := rma.RaceReport(race)
	var sb strings.Builder
	rc.WriteFlight(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	var marked []int
	for i, ln := range lines {
		if strings.HasPrefix(ln, ">>") {
			marked = append(marked, i)
		}
	}
	return lines, marked
}

// TestWriteFlightMarksConflict: the postmortem dump marks exactly the
// two accesses matching the race verdict.
func TestWriteFlightMarksConflict(t *testing.T) {
	prev := renderAcc(64, 8, 0, 666)
	cur := renderAcc(64, 8, 1, 667)
	race := &detector.Race{Prev: prev, Cur: cur, FlightLog: []detector.FlightEntry{
		{Seq: 0, Kind: detector.FlightAccess, Acc: renderAcc(0, 8, 0, 100)},
		{Seq: 1, Kind: detector.FlightAccess, Acc: prev},
		{Seq: 2, Kind: detector.FlightEpochEnd, Origin: 0},
		{Seq: 3, Kind: detector.FlightAccess, Acc: cur},
	}}
	lines, marked := markedLines(t, race)
	dump := strings.Join(lines, "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines:\n%s", len(lines), dump)
	}
	if len(marked) != 2 || marked[0] != 1 || marked[1] != 3 {
		t.Fatalf("marked lines %v, want [1 3]:\n%s", marked, dump)
	}
	if !strings.Contains(lines[2], "epoch_end") {
		t.Fatalf("sync marker missing from dump:\n%s", dump)
	}
}

// TestInvolvesMatchesFragmentedVerdict: a recorded access is marked
// when the verdict holds only a fragment of it, and the inserted side
// is marked; an access with a side's identity that does not overlap
// it, and an overlapping access of another rank, are not.
func TestInvolvesMatchesFragmentedVerdict(t *testing.T) {
	orig := renderAcc(0, 16, 1, 10)
	frag := orig
	frag.Interval = interval.Span(8, 8)
	cur := renderAcc(8, 8, 2, 20)
	far := orig
	far.Interval = interval.Span(1000, 8)
	other := renderAcc(8, 8, 3, 30)
	race := &detector.Race{Prev: frag, Cur: cur, FlightLog: []detector.FlightEntry{
		{Seq: 0, Kind: detector.FlightAccess, Acc: orig},
		{Seq: 1, Kind: detector.FlightAccess, Acc: cur},
		{Seq: 2, Kind: detector.FlightAccess, Acc: far},
		{Seq: 3, Kind: detector.FlightAccess, Acc: other},
	}}
	lines, marked := markedLines(t, race)
	dump := strings.Join(lines, "\n")
	isMarked := func(i int) bool {
		for _, m := range marked {
			if m == i {
				return true
			}
		}
		return false
	}
	if !isMarked(0) {
		t.Errorf("original access not matched against its fragment's verdict:\n%s", dump)
	}
	if !isMarked(1) {
		t.Errorf("inserted access not matched:\n%s", dump)
	}
	if isMarked(2) {
		t.Errorf("non-overlapping access with equal identity wrongly implicated:\n%s", dump)
	}
	if isMarked(3) {
		t.Errorf("unrelated rank implicated:\n%s", dump)
	}
}
