package rma

import (
	"bytes"
	"errors"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
)

// TestOneSidedAfterFreeIsErrFreed: every one-sided operation on a freed
// window handle fails with ErrFreed, whatever epoch state it finds.
func TestOneSidedAfterFreeIsErrFreed(t *testing.T) {
	err, _ := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		src := p.Alloc("src", 16)
		_, fetchErr := w.FetchAndOp(1, 0, 1, access.AccumSum, dbg(4))
		for name, err := range map[string]error{
			"Put":        w.Put(1, 0, src, 0, 8, dbg(1)),
			"Get":        w.Get(src, 0, 1, 0, 8, dbg(2)),
			"Accumulate": w.Accumulate(1, 0, src, 0, 8, access.AccumSum, dbg(3)),
			"FetchAndOp": fetchErr,
			"PutVector":  w.PutVector(1, 0, src, 0, Vector{BlockLen: 4, Stride: 8, Count: 2}, dbg(5)),
		} {
			if !errors.Is(err, ErrFreed) {
				t.Errorf("%s after Free: %v, want ErrFreed", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneSidedOutOfBoundsHasNoSideEffect: a Put, Get, Accumulate or
// FetchAndOp whose target or origin region runs past its buffer returns
// an error before anything is analysed, moved or notified, and the
// world runs on.
func TestOneSidedOutOfBoundsHasNoSideEffect(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Alloc("src", 16)
			copy(src.Raw(), "ABCDEFGHIJKLMNOP")
			fetch := func(off int) error {
				_, err := w.FetchAndOp(1, off, 1, access.AccumSum, dbg(9))
				return err
			}
			for name, err := range map[string]error{
				"Put past the target":        w.Put(1, 60, src, 0, 8, dbg(1)),
				"Put past the origin":        w.Put(1, 0, src, 12, 8, dbg(2)),
				"Get past the target":        w.Get(src, 0, 1, 60, 8, dbg(3)),
				"Get before the origin":      w.Get(src, -4, 1, 0, 8, dbg(4)),
				"Accumulate past the target": w.Accumulate(1, 64, src, 0, 8, access.AccumSum, dbg(5)),
				"Accumulate past the origin": w.Accumulate(1, 0, src, 16, 8, access.AccumSum, dbg(6)),
				"FetchAndOp past the target": fetch(60),
				"FetchAndOp before it":       fetch(-8),
			} {
				if err == nil {
					t.Errorf("%s accepted", name)
				}
			}
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		if got := w.Buffer().Raw(); !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("rank %d's window changed: %q", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("the world aborted: %v", err)
	}
	for _, ws := range s.Stats() {
		if ws.Accesses != 0 {
			t.Errorf("window %s analysed %d accesses, want none", ws.Name, ws.Accesses)
		}
		for r, n := range ws.PerRankReceived {
			if n != 0 {
				t.Errorf("rank %d received %d notifications, want none", r, n)
			}
		}
	}
}
