package oracle

import (
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
)

func acc(lo, n uint64, tp access.Type, rank int, epoch uint64, line int) access.Access {
	return access.Access{
		Interval: interval.Span(lo, n),
		Type:     tp,
		Rank:     rank,
		Epoch:    epoch,
		Debug:    access.Debug{File: "o.c", Line: line},
	}
}

func TestOverlappingWritesRace(t *testing.T) {
	o := New()
	o.Access(0, acc(0, 16, access.RMAWrite, 1, 0, 1))
	o.Access(0, acc(8, 16, access.RMAWrite, 2, 0, 2))
	if !o.Raced() || o.Len() != 1 {
		t.Fatalf("want exactly one race, got %d", o.Len())
	}
}

func TestCollectsAllRacesNotJustFirst(t *testing.T) {
	o := New()
	o.Access(0, acc(0, 8, access.RMAWrite, 1, 0, 1))
	o.Access(0, acc(100, 8, access.RMAWrite, 1, 0, 2))
	// One incoming access racing with both stored ones.
	o.Access(0, acc(0, 128, access.RMAWrite, 2, 0, 3))
	// And an unrelated later pair.
	o.Access(0, acc(500, 8, access.RMAWrite, 3, 0, 4))
	o.Access(0, acc(500, 8, access.RMARead, 1, 0, 5))
	if o.Len() != 3 {
		t.Fatalf("want 3 distinct races, got %d: %v", o.Len(), o.Keys())
	}
}

func TestDedupByKey(t *testing.T) {
	o := New()
	// The same source line writing adjacent bytes twice against the
	// same conflicting line: one logical race, reported once.
	o.Access(0, acc(0, 8, access.RMAWrite, 1, 0, 1))
	o.Access(0, acc(8, 8, access.RMAWrite, 1, 0, 1))
	o.Access(0, acc(0, 16, access.RMAWrite, 2, 0, 2))
	if o.Len() != 1 {
		t.Fatalf("duplicate pair keys not collapsed: got %d races", o.Len())
	}
}

func TestOrderSensitivityCode1(t *testing.T) {
	// §5.2: Load;MPI_Get is safe, MPI_Get;Load is not.
	safe := New()
	safe.Access(0, acc(0, 8, access.LocalRead, 0, 0, 1))
	safe.Access(0, acc(0, 8, access.RMAWrite, 0, 0, 2)) // origin side of a Get
	if safe.Raced() {
		t.Fatal("Load;Get wrongly flagged")
	}
	racy := New()
	racy.Access(0, acc(0, 8, access.RMAWrite, 0, 0, 2))
	racy.Access(0, acc(0, 8, access.LocalRead, 0, 0, 1))
	if !racy.Raced() {
		t.Fatal("Get;Load not flagged")
	}
}

func TestAccumulateSemantics(t *testing.T) {
	sameOp := New()
	a := acc(0, 8, access.RMAAccum, 1, 0, 1)
	a.AccumOp = access.AccumSum
	b := acc(0, 8, access.RMAAccum, 2, 0, 2)
	b.AccumOp = access.AccumSum
	sameOp.Access(0, a)
	sameOp.Access(0, b)
	if sameOp.Raced() {
		t.Fatal("same-op concurrent accumulates wrongly flagged")
	}
	mixed := New()
	c := b
	c.AccumOp = access.AccumMax
	mixed.Access(0, a)
	mixed.Access(0, c)
	if !mixed.Raced() {
		t.Fatal("mixed-op accumulates not flagged")
	}
}

func TestEpochBoundaryNeverPairs(t *testing.T) {
	o := New()
	o.Access(0, acc(0, 8, access.RMAWrite, 1, 0, 1))
	o.EpochEnd(0)
	o.Access(0, acc(0, 8, access.RMAWrite, 2, 1, 2))
	if o.Raced() {
		t.Fatal("accesses across an epoch boundary paired")
	}
	// Even with equal (buggy) epoch stamps: the structural per-epoch
	// list protects the verdict.
	o2 := New()
	o2.Access(0, acc(0, 8, access.RMAWrite, 1, 0, 1))
	o2.EpochEnd(0)
	o2.Access(0, acc(0, 8, access.RMAWrite, 2, 0, 2))
	if o2.Raced() {
		t.Fatal("stale epoch stamp paired across a boundary")
	}
}

func TestReleaseRetiresRank(t *testing.T) {
	o := New()
	o.Access(1, acc(0, 8, access.RMAWrite, 0, 0, 1))
	o.Release(1, 0)
	o.Access(1, acc(0, 8, access.RMAWrite, 2, 0, 2))
	if o.Raced() {
		t.Fatal("released access still paired")
	}
	// A different rank's accesses survive the release.
	o.Access(1, acc(0, 8, access.RMAWrite, 3, 0, 3))
	if !o.Raced() {
		t.Fatal("unreleased pair missed")
	}
}

// TestCompleteSplitKeepsNextAccess: completing a span inside one stored
// access splits it in two, and the extra piece must not overwrite the
// stored access after it.
func TestCompleteSplitKeepsNextAccess(t *testing.T) {
	o := New()
	o.Access(0, acc(0, 12, access.RMAWrite, 1, 0, 1))  // split by the completion
	o.Access(0, acc(100, 8, access.RMAWrite, 2, 0, 2)) // unvisited when the split lands
	o.Complete(0, 1, interval.Span(4, 4))
	o.Access(0, acc(100, 8, access.RMAWrite, 3, 0, 3))
	if !o.Raced() {
		t.Fatal("the access after a split completion was lost")
	}
	// Both remnants of the split access stay live; the completed span
	// does not.
	o.Access(0, acc(0, 1, access.RMAWrite, 4, 0, 4))
	o.Access(0, acc(11, 1, access.RMAWrite, 5, 0, 5))
	o.Access(0, acc(5, 1, access.RMAWrite, 6, 0, 6))
	if o.Len() != 3 {
		t.Fatalf("want 3 races (2/3, 1/4, 1/5), got %d: %v", o.Len(), o.Keys())
	}
}

func TestOwnersAreIndependent(t *testing.T) {
	o := New()
	o.Access(0, acc(0, 8, access.RMAWrite, 1, 0, 1))
	o.Access(1, acc(0, 8, access.RMAWrite, 2, 0, 2))
	if o.Raced() {
		t.Fatal("accesses at different owners paired")
	}
}

func TestVerdictKeysMatchProductionDedup(t *testing.T) {
	o := New()
	s := acc(0, 16, access.RMAWrite, 1, 0, 1)
	c := acc(8, 8, access.RMAWrite, 2, 0, 2)
	o.Access(0, s)
	o.Access(0, c)
	want := detector.DedupKey(&detector.Race{Prev: s, Cur: c})
	if !o.Has(want) {
		t.Fatalf("oracle key set %v lacks production dedup key %v", o.Keys(), want)
	}
	// And a fragment-narrowed production verdict still matches.
	frag := s
	frag.Interval = interval.Span(8, 8)
	if !o.Has(detector.DedupKey(&detector.Race{Prev: frag, Cur: c})) {
		t.Fatal("fragment-narrowed verdict key not in oracle set")
	}
}
