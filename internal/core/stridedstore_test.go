package core

import (
	"math/rand"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/store"
)

// newStrided returns an analyzer running Algorithm 1 over the
// regular-section store (§6(3), the strided backend).
func newStrided(opts ...Option) *Analyzer {
	return New(append([]Option{WithStore(store.NewStrided())}, opts...)...)
}

// stridedEv emits the MiniVite pattern: 8-byte accesses at 24-byte
// stride, one source line.
func stridedEv(i int, tp access.Type, line int, time *uint64) detector.Event {
	*time++
	return detector.Event{
		Acc: access.Access{
			Interval: interval.Span(uint64(i)*24, 8),
			Type:     tp,
			Rank:     0,
			Debug:    access.Debug{File: "dspl.hpp", Line: line},
		},
		Time: *time, CallTime: *time,
	}
}

// TestStridedCompressionMiniVitePattern validates the §6(3) hypothesis:
// the strided store compresses the non-adjacent attribute accesses that
// plain merging cannot touch.
func TestStridedCompressionMiniVitePattern(t *testing.T) {
	plain := New()
	strided := newStrided()
	var t1, t2 uint64
	const n = 2000
	for i := 0; i < n; i++ {
		if r := plain.Access(stridedEv(i, access.LocalRead, 601, &t1)); r != nil {
			t.Fatal(r)
		}
		if r := strided.Access(stridedEv(i, access.LocalRead, 601, &t2)); r != nil {
			t.Fatal(r)
		}
	}
	if plain.Nodes() != n {
		t.Fatalf("plain analyzer has %d nodes, want %d (strided accesses do not merge)", plain.Nodes(), n)
	}
	if strided.Nodes() != 1 {
		t.Fatalf("strided analyzer has %d nodes, want 1 section", strided.Nodes())
	}
	secs := strided.Store().(*store.Strided).Sections()
	if len(secs) != 1 || secs[0].Elements() != n || secs[0].Stride != 24 {
		t.Fatalf("sections = %v", secs)
	}
}

// TestStridedDetectionStillComplete: a conflicting access overlapping a
// compressed element is still reported, with the section element as the
// stored side.
func TestStridedDetectionStillComplete(t *testing.T) {
	z := newStrided()
	var tm uint64
	for i := 0; i < 100; i++ {
		if r := z.Access(stridedEv(i, access.RMAWrite, 612, &tm)); r != nil {
			t.Fatal(r)
		}
	}
	// A local read by another... by the same rank after the RMA writes:
	// RMA-then-local races.
	tm++
	race := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(50*24, 8),
			Type:     access.LocalRead,
			Rank:     0,
			Debug:    access.Debug{File: "dspl.hpp", Line: 700},
		},
		Time: tm,
	})
	if race == nil {
		t.Fatal("race against a compressed element missed")
	}
	if race.Prev.Interval != interval.Span(50*24, 8) || race.Prev.Type != access.RMAWrite {
		t.Fatalf("race stored side = %+v", race.Prev)
	}
}

// TestStridedGapsDoNotFalsePositive: the bytes between elements are not
// covered by the section.
func TestStridedGapsDoNotFalsePositive(t *testing.T) {
	z := newStrided()
	var tm uint64
	for i := 0; i < 100; i++ {
		if r := z.Access(stridedEv(i, access.RMAWrite, 612, &tm)); r != nil {
			t.Fatal(r)
		}
	}
	// Offset 8..15 of each 24-byte record is untouched by the section.
	tm++
	race := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(50*24+8, 8),
			Type:     access.LocalWrite,
			Rank:     0,
			Debug:    access.Debug{File: "dspl.hpp", Line: 701},
		},
		Time: tm,
	})
	if race != nil {
		t.Fatalf("gap access flagged: %v", race)
	}
}

// TestStridedShortRunsMaterialise: runs below the threshold go back to
// the tree and behave normally (merging applies if adjacent).
func TestStridedShortRunsMaterialise(t *testing.T) {
	z := newStrided()
	var tm uint64
	// Two elements at stride 24, then a stream break (different stride).
	z.Access(stridedEv(0, access.LocalRead, 601, &tm))
	z.Access(stridedEv(1, access.LocalRead, 601, &tm))
	tm++
	z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(1000, 8),
			Type:     access.LocalRead,
			Rank:     0,
			Debug:    access.Debug{File: "dspl.hpp", Line: 601},
		},
		Time: tm,
	})
	// Breaking the run twice (the 1000 access starts a new candidate)
	// eventually materialises the 2-element run.
	z.EpochEnd()
	if z.Nodes() != 0 {
		t.Fatalf("EpochEnd left %d nodes", z.Nodes())
	}
}

// TestStridedSameSlotNoRaceForReads: repeated reads of one slot do not
// form a section (stride 0 is rejected) but also never race.
func TestStridedSameSlotReads(t *testing.T) {
	z := newStrided()
	var tm uint64
	for i := 0; i < 10; i++ {
		tm++
		r := z.Access(detector.Event{
			Acc: access.Access{
				Interval: interval.Span(64, 8),
				Type:     access.LocalRead,
				Rank:     0,
				Debug:    access.Debug{File: "dspl.hpp", Line: 601},
			},
			Time: tm,
		})
		if r != nil {
			t.Fatal(r)
		}
	}
	if z.Nodes() != 1 {
		t.Fatalf("repeated same-slot reads left %d nodes", z.Nodes())
	}
}

// TestStridedEquivalentDetection compares strided and plain analyzers
// on random workloads: identical race verdicts at first divergence
// point.
func TestStridedEquivalentDetection(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		plain := New()
		str := newStrided()
		var tm uint64
		for step := 0; step < 120; step++ {
			tm++
			tp := access.Type(r.Intn(4))
			rank := 0
			if tp.IsRMA() {
				rank = r.Intn(3)
			}
			var iv interval.Interval
			if r.Intn(2) == 0 {
				iv = interval.Span(uint64(r.Intn(30))*24, 8) // strided slots
			} else {
				lo := uint64(r.Intn(600))
				iv = interval.Span(lo, uint64(r.Intn(10)+1)) // arbitrary
			}
			ev := detector.Event{
				Acc: access.Access{
					Interval: iv, Type: tp, Rank: rank,
					Debug: access.Debug{File: "q.c", Line: r.Intn(3)},
				},
				Time: tm, CallTime: tm,
			}
			r1 := plain.Access(ev)
			r2 := str.Access(ev)
			if (r1 == nil) != (r2 == nil) {
				t.Fatalf("trial %d step %d: plain race=%v strided race=%v (ev %+v)",
					trial, step, r1, r2, ev.Acc)
			}
			if r1 != nil {
				break
			}
		}
	}
}

// TestStridedCompressionOnSweeps: on forward sweeps (each slot visited
// once, MiniVite-like) the strided store is dramatically smaller; on
// revisiting workloads sections may double-cover addresses also present
// in the tree, but the store stays within a small factor of the plain
// one.
func TestStridedCompressionOnSweeps(t *testing.T) {
	mk := func(step int, jitter uint64) detector.Event {
		return detector.Event{
			Acc: access.Access{
				Interval: interval.Span(uint64(step)*24+jitter*8, 8),
				Type:     access.LocalRead,
				Rank:     0,
				Debug:    access.Debug{File: "q.c", Line: 601},
			},
			Time: uint64(step + 1),
		}
	}

	// Forward sweep: one long section.
	plain, str := New(), newStrided()
	for step := 0; step < 3000; step++ {
		ev := mk(step, 0)
		if plain.Access(ev) != nil || str.Access(ev) != nil {
			t.Fatal("read-only workload raced")
		}
	}
	if str.Nodes()*5 > plain.Nodes() {
		t.Fatalf("sweep compression too weak: strided %d vs plain %d", str.Nodes(), plain.Nodes())
	}

	// Revisiting workload: duplicate coverage is allowed but bounded.
	r := rand.New(rand.NewSource(29))
	plain2, str2 := New(), newStrided()
	var tm uint64
	for step := 0; step < 3000; step++ {
		tm++
		ev := mk(step%500, uint64(r.Intn(2)))
		ev.Time = tm
		if plain2.Access(ev) != nil || str2.Access(ev) != nil {
			t.Fatal("read-only workload raced")
		}
	}
	if str2.Nodes() > 2*plain2.Nodes() {
		t.Fatalf("strided store blew up on revisits: %d vs %d", str2.Nodes(), plain2.Nodes())
	}
}

// TestStridedReleaseRetiresRemote: an exclusive-unlock release drops
// every remote one-sided entry — compressed sections and tree nodes
// alike, whichever rank issued them (the lock's FIFO grant order puts
// all completed sessions before later holders) — while the window
// owner's own accesses survive. Retiring by remoteness rather than by
// releasing rank is what keeps Release exact after Table 1 fragment
// combination; the differential fuzzer found the per-rank variant's
// false negative.
func TestStridedReleaseRetiresRemote(t *testing.T) {
	z := newStrided(WithOwner(0))
	var tm uint64
	// Rank 1 writes a long strided run (compressed), rank 2 a single
	// slot (tree node), and the owner a slot of its own.
	for i := 0; i < 50; i++ {
		tm++
		ev := detector.Event{
			Acc: access.Access{
				Interval: interval.Span(uint64(i)*24, 8),
				Type:     access.RMAWrite,
				Rank:     1,
				Debug:    access.Debug{File: "r.c", Line: 1},
			},
			Time: tm, CallTime: tm,
		}
		if r := z.Access(ev); r != nil {
			t.Fatal(r)
		}
	}
	tm++
	if r := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(10000, 8),
			Type:     access.RMAWrite,
			Rank:     2,
			Debug:    access.Debug{File: "r.c", Line: 2},
		},
		Time: tm, CallTime: tm,
	}); r != nil {
		t.Fatal(r)
	}
	tm++
	if r := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(20000, 8),
			Type:     access.RMAWrite,
			Rank:     0,
			Debug:    access.Debug{File: "r.c", Line: 3},
		},
		Time: tm, CallTime: tm,
	}); r != nil {
		t.Fatal(r)
	}

	z.Release(1)
	// Rank 1's compressed accesses are gone: a conflicting write to
	// their range is now clean...
	tm++
	if r := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(24, 8),
			Type:     access.RMAWrite,
			Rank:     3,
			Debug:    access.Debug{File: "r.c", Line: 4},
		},
		Time: tm, CallTime: tm,
	}); r != nil {
		t.Fatalf("released section still conflicts: %v", r)
	}
	// ...and so is rank 2's tree node: its session also completed
	// before the unlock in the lock's grant order.
	tm++
	if r := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(10000, 8),
			Type:     access.RMAWrite,
			Rank:     3,
			Debug:    access.Debug{File: "r.c", Line: 5},
		},
		Time: tm, CallTime: tm,
	}); r != nil {
		t.Fatalf("remote node survived release: %v", r)
	}
	// The owner's own access is never lock-ordered and still races.
	tm++
	if r := z.Access(detector.Event{
		Acc: access.Access{
			Interval: interval.Span(20000, 8),
			Type:     access.RMAWrite,
			Rank:     3,
			Debug:    access.Debug{File: "r.c", Line: 6},
		},
		Time: tm, CallTime: tm,
	}); r == nil {
		t.Fatal("owner's access vanished on release")
	}
}
