package core

import (
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/store"
)

// TestReleaseRetiresConflatedRemoteFragments pins the fuzzer-found
// defect of per-rank release. Two remote ranks issue overlapping
// same-operation accumulates (race-exempt); Table 1 combination types
// their intersection fragment with a single identity — the incoming
// access's rank — so a per-rank retirement keyed on that label either
// deletes coverage belonging to a still-live rank (a false negative
// the differential fuzzer minimised to a 10-op reproducer) or leaves a
// retired rank's label live (a false positive). Retiring by remoteness
// is exact: remote accesses only ever share a combined fragment with
// other remote accesses, and the exclusive unlock's FIFO lock ordering
// retires all of them together, so the verdict always matches the
// naive per-access oracle.
func TestReleaseRetiresConflatedRemoteFragments(t *testing.T) {
	ev := func(tp access.Type, rank int, lo, n uint64, op access.AccumOp, line int, tm uint64) detector.Event {
		return detector.Event{
			Acc: access.Access{
				Interval: interval.Span(lo, n),
				Type:     tp,
				Rank:     rank,
				AccumOp:  op,
				Debug:    access.Debug{File: "f.c", Line: line},
			},
			Time: tm, CallTime: tm,
		}
	}
	z := New(WithOwner(1))
	// Remote rank 0 accumulates over [100,107]; remote rank 3 over the
	// overlapping [104,111] with the same reduction operation — exempt
	// from racing, and the [104,107] fragment is combined under a
	// single (here rank 3's) identity.
	if r := z.Access(ev(access.RMAAccum, 0, 100, 8, access.AccumBand, 1, 1)); r != nil {
		t.Fatal(r)
	}
	if r := z.Access(ev(access.RMAAccum, 3, 104, 8, access.AccumBand, 2, 2)); r != nil {
		t.Fatal(r)
	}
	// The owner's own one-sided access (origin-side buffer) elsewhere.
	if r := z.Access(ev(access.RMAWrite, 1, 200, 8, access.AccumNone, 3, 3)); r != nil {
		t.Fatal(r)
	}

	z.Release(3) // rank 3's exclusive unlock

	// Every remote access retired — including rank 0's, whose session
	// also completed before the unlock in the lock's FIFO grant order.
	// A conflicting write over the whole accumulated range is clean,
	// exactly as the naive oracle rules.
	if r := z.Access(ev(access.RMAWrite, 2, 100, 12, access.AccumNone, 4, 4)); r != nil {
		t.Fatalf("retired remote coverage still conflicts: %v", r)
	}
	// The owner's access is never lock-ordered and still races.
	if r := z.Access(ev(access.RMAWrite, 2, 200, 8, access.AccumNone, 5, 5)); r == nil {
		t.Fatal("owner's access vanished on release")
	}
}

// TestReleaseUnknownOwnerRetiresAllRMA: without WithOwner the analyzer
// cannot tell the owner's accesses apart and conservatively retires
// every one-sided access on Release (and a zero-value Analyzer behaves
// the same).
func TestReleaseUnknownOwnerRetiresAllRMA(t *testing.T) {
	var z Analyzer
	a := detector.Event{
		Acc: access.Access{
			Interval: interval.Span(0, 8),
			Type:     access.RMAWrite,
			Rank:     0,
			Debug:    access.Debug{File: "f.c", Line: 1},
		},
		Time: 1, CallTime: 1,
	}
	if r := z.Access(a); r != nil {
		t.Fatal(r)
	}
	z.Release(2)
	if n := z.Nodes(); n != 0 {
		t.Fatalf("unknown-owner release kept %d nodes", n)
	}
}

// TestCompleteRequestVerdictIgnoresRecording pins that recording does
// not change what a request's completion retires. The recorder wraps
// the store in store.Instrumented, which must hand RemoveRankSpan to a
// backend that has its own: the shadow store's Delete removes nothing,
// so the generic trim kept the completed Rget's origin entry and the
// owner's later write over that buffer raced.
func TestCompleteRequestVerdictIgnoresRecording(t *testing.T) {
	buf := interval.New(0, 7)
	ev := func(tp access.Type, line int) detector.Event {
		return detector.Event{Acc: access.Access{
			Interval: buf, Type: tp, Rank: 1,
			Debug: access.Debug{File: "f.c", Line: line},
		}}
	}
	run := func(name string, recording bool) *detector.Race {
		st, err := store.New(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithOwner(0), WithStore(st)}
		if recording {
			opts = append(opts, WithRecorder(obs.NewRegistry(), 0))
		}
		z := New(opts...)
		if r := z.Access(ev(access.RMARead, 1)); r != nil {
			t.Fatalf("%s: the first access raced: %v", name, r)
		}
		z.CompleteRequest(1, buf)
		return z.Access(ev(access.LocalWrite, 2))
	}
	for _, name := range store.Names() {
		bare, recorded := run(name, false), run(name, true)
		if (bare == nil) != (recorded == nil) {
			t.Errorf("%s: race %v without a recorder, %v with one", name, bare, recorded)
		}
		if name != "legacy" && recorded != nil {
			t.Errorf("%s: the write over a completed request's buffer raced: %v", name, recorded)
		}
	}
}
