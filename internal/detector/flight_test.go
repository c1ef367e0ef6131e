package detector

import (
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

func flightAcc(lo uint64, rank int, line int) access.Access {
	return access.Access{
		Interval: interval.Span(lo, 8),
		Type:     access.RMAWrite,
		Rank:     rank,
		Epoch:    1,
		Debug:    access.Debug{File: "f.c", Line: line},
	}
}

// TestFlightLogWraps: the ring keeps exactly the last N events and
// Snapshot returns them oldest first with monotonic sequence numbers.
func TestFlightLogWraps(t *testing.T) {
	f := NewFlightLog(4)
	for i := 0; i < 6; i++ {
		f.Access(flightAcc(uint64(i)*16, 0, 100+i))
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d entries, want 4", len(snap))
	}
	for i, e := range snap {
		if want := uint64(2 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
		if e.Kind != FlightAccess || e.Acc.Debug.Line != 102+i {
			t.Fatalf("entry %d = %+v, wrong order", i, e)
		}
	}
}

// TestFlightLogMixedKinds: sync markers interleave with accesses and
// keep their origin.
func TestFlightLogMixedKinds(t *testing.T) {
	f := NewFlightLog(8)
	f.Access(flightAcc(0, 1, 100))
	f.Mark(FlightEpochEnd, 3)
	f.Mark(FlightFlush, 2)
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d entries", len(snap))
	}
	if snap[1].Kind != FlightEpochEnd || snap[1].Origin != 3 {
		t.Fatalf("epoch entry = %+v", snap[1])
	}
	if snap[2].Kind != FlightFlush || snap[2].Origin != 2 {
		t.Fatalf("flush entry = %+v", snap[2])
	}
}

// TestNilFlightLogInert: the disabled recorder accepts every call and
// snapshots to nil.
func TestNilFlightLogInert(t *testing.T) {
	var f *FlightLog
	f.Access(flightAcc(0, 0, 1))
	f.Mark(FlightSync, 0)
	if snap := f.Snapshot(); snap != nil {
		t.Fatalf("nil log snapshotted %v", snap)
	}
}
