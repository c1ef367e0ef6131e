package rma

import (
	"math/rand"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
)

// fuzzProgram builds a random SPMD program that is race-free by
// construction: every rank owns a disjoint slot range in every window
// segment, operations target only the issuing rank's slots, and local
// accesses stay within the rank's private buffers. With inject set, one
// deliberate overlap between two ranks' RMA writes is added.
type fuzzProgram struct {
	ranks    int
	ops      int
	seed     int64
	inject   bool
	slotsPer int
}

func (f fuzzProgram) body() func(p *Proc) error {
	const slotBytes = 16
	return func(p *Proc) error {
		rng := rand.New(rand.NewSource(f.seed + int64(p.Rank())*104729))
		segBytes := f.slotsPer * slotBytes
		// One put/get segment per origin plus a shared accumulator
		// segment at the end.
		w, err := p.WinCreate("fuzz", (f.ranks+1)*segBytes)
		if err != nil {
			return err
		}
		locals := p.Alloc("locals", f.slotsPer*slotBytes)
		gdst := p.Alloc("getdst", f.ranks*f.slotsPer*slotBytes)
		scratch := p.Alloc("scratch", 4096, Untracked())

		if err := w.LockAll(); err != nil {
			return err
		}
		// Each (origin, slot) pair is used at most once per epoch for a
		// remote write; reads may repeat.
		usedPut := make(map[int]bool)   // slot index within my segment, across all targets
		usedLocal := make(map[int]bool) // locally stored slots
		didAccum := false

		for op := 0; op < f.ops; op++ {
			slot := rng.Intn(f.slotsPer)
			target := rng.Intn(f.ranks)
			myOff := p.Rank()*segBytes + slot*slotBytes
			dbgLine := access.Debug{File: "fuzz.c", Line: 100 + op%7}
			switch rng.Intn(6) {
			case 0: // put into my dedicated slot at the target
				key := target*f.slotsPer + slot
				if usedPut[key] {
					continue
				}
				usedPut[key] = true
				if err := w.Put(target, myOff, locals, slot*slotBytes, 8, dbgLine); err != nil {
					return err
				}
			case 1: // get from my dedicated slot at the target
				// A put (RMA_Write) plus a get (RMA_Read) of the same
				// slot would race within the epoch, so each slot is
				// used by exactly one one-sided operation. The
				// destination is a dedicated per-key slot of a tracked
				// buffer (never touched locally).
				key := target*f.slotsPer + slot
				if usedPut[key] {
					continue
				}
				usedPut[key] = true
				if err := w.Get(gdst, key*slotBytes, target, myOff, 8, dbgLine); err != nil {
					return err
				}
			case 2: // local store to a private slot (at most once)
				if usedLocal[slot] {
					continue
				}
				usedLocal[slot] = true
				if err := locals.Store(slot*slotBytes+8, make([]byte, 8), dbgLine); err != nil {
					return err
				}
			case 3: // local load of a private slot (idempotent, safe)
				if _, err := locals.Load(slot*slotBytes+8, 8, dbgLine); err != nil {
					return err
				}
			case 4: // filtered interior work
				if _, err := scratch.Load((slot%250)*16, 8, dbgLine); err != nil {
					return err
				}
			case 5: // one accumulate into this origin's accumulator slot.
				// A single per-origin accumulate keeps the program
				// silent even under the legacy analyzer, which
				// conservatively flags any overlapping accumulates;
				// the same-operation atomicity semantics are exercised
				// by the dedicated accumulate tests.
				if didAccum {
					continue
				}
				didAccum = true
				if err := w.Accumulate(target, f.ranks*segBytes+p.Rank()*slotBytes, locals, slot*slotBytes, 8, access.AccumSum, dbgLine); err != nil {
					return err
				}
			}
		}

		if f.inject && p.Rank() < 2 {
			// Two ranks write the same byte of rank 0's window: a
			// guaranteed cross-origin RMA_Write overlap.
			if err := w.Put(0, segBytes-8, locals, 0, 8, access.Debug{File: "fuzz.c", Line: 999}); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
}

// TestFuzzSafeProgramsStaySilent drives randomized race-free programs
// through every method: no false positives, no deadlocks, no aborts.
func TestFuzzSafeProgramsStaySilent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := fuzzProgram{ranks: 5, ops: 300, seed: seed, slotsPer: 64}
		for _, m := range detector.Methods() {
			err, s := run(t, f.ranks, m, Config{}, f.body())
			if err != nil {
				t.Fatalf("seed %d under %v: %v", seed, m, err)
			}
			if s.Race() != nil {
				t.Fatalf("seed %d under %v: false positive %v", seed, m, s.Race())
			}
		}
		// The strided extension must agree.
		err, s := run(t, f.ranks, detector.OurContribution, Config{Store: "strided"}, f.body())
		if err != nil || s.Race() != nil {
			t.Fatalf("seed %d strided: err=%v race=%v", seed, err, s.Race())
		}
	}
}

// TestFuzzInjectedOverlapAlwaysCaught: with the seeded cross-origin
// write overlap, the sound detectors must always report.
func TestFuzzInjectedOverlapAlwaysCaught(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := fuzzProgram{ranks: 5, ops: 200, seed: seed, slotsPer: 64, inject: true}
		for _, m := range []detector.Method{detector.OurContribution, detector.MustRMAMethod, detector.RMAAnalyzer} {
			_, s := run(t, f.ranks, m, Config{}, f.body())
			if s.Race() == nil {
				t.Fatalf("seed %d under %v: injected overlap missed", seed, m)
			}
		}
	}
}

// TestFuzzAccessCountsAgree: the two tree-based analyzers must observe
// exactly the same access stream.
func TestFuzzAccessCountsAgree(t *testing.T) {
	f := fuzzProgram{ranks: 4, ops: 400, seed: 11, slotsPer: 64}
	totals := make(map[detector.Method]uint64)
	for _, m := range []detector.Method{detector.RMAAnalyzer, detector.OurContribution} {
		err, s := run(t, f.ranks, m, Config{}, f.body())
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range s.Stats() {
			totals[m] += ws.Accesses
		}
	}
	if totals[detector.RMAAnalyzer] != totals[detector.OurContribution] {
		t.Fatalf("access streams diverge: %v", totals)
	}
	if totals[detector.OurContribution] == 0 {
		t.Fatal("no accesses observed")
	}
}
