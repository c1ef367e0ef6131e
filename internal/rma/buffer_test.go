package rma

import (
	"bytes"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
)

// errOf drops a Load's or LoadU64's value and keeps its error.
func errOf[T any](_ T, err error) error { return err }

// TestLocalOutOfBoundsHasNoSideEffect: a Load, Store, LoadU64 or
// StoreU64 whose region runs past its buffer, or is empty, returns an
// error before anything is analysed or copied, on window memory, a plain
// buffer and an untracked one, under methods that skip untracked
// buffers and under MUST-RMA, which analyses them; the world runs on.
func TestLocalOutOfBoundsHasNoSideEffect(t *testing.T) {
	for _, m := range []detector.Method{detector.Baseline, detector.OurContribution, detector.MustRMAMethod} {
		err, s := run(t, 2, m, Config{}, func(p *Proc) error {
			w, err := p.WinCreate("w", 64)
			if err != nil {
				return err
			}
			if err := w.LockAll(); err != nil {
				return err
			}
			for _, b := range []*Buffer{w.Buffer(), p.Alloc("plain", 8), p.Alloc("scratch", 8, Untracked())} {
				n := b.Size()
				before := p.time
				for name, err := range map[string]error{
					"Load past the end":         errOf(b.Load(n-4, 8, dbg(1))),
					"Load before the start":     errOf(b.Load(-1, 4, dbg(2))),
					"empty Load":                errOf(b.Load(0, 0, dbg(3))),
					"Store past the end":        b.Store(n-4, []byte("ABCDEFGH"), dbg(4)),
					"empty Store":               b.Store(0, nil, dbg(5)),
					"LoadU64 past the end":      errOf(b.LoadU64(n-4, dbg(6))),
					"StoreU64 past the end":     b.StoreU64(n-4, ^uint64(0), dbg(7)),
					"StoreU64 before its start": b.StoreU64(-8, ^uint64(0), dbg(8)),
				} {
					if err == nil {
						t.Errorf("%v: %s on %q accepted", m, name, b.Name())
					} else if !strings.Contains(err.Error(), "out of bounds of") {
						t.Errorf("%v: %s on %q: %v", m, name, b.Name(), err)
					}
				}
				if got := b.Raw(); !bytes.Equal(got, make([]byte, n)) {
					t.Errorf("%v: rank %d's %q changed: %q", m, p.Rank(), b.Name(), got)
				}
				if p.time != before {
					t.Errorf("%v: refused accesses advanced the program-order counter by %d", m, p.time-before)
				}
			}
			return w.UnlockAll()
		})
		if err != nil {
			t.Fatalf("%v: the world aborted: %v", m, err)
		}
		for _, ws := range s.Stats() {
			if ws.Accesses != 0 {
				t.Errorf("%v: window %s analysed %d accesses, want none", m, ws.Name, ws.Accesses)
			}
		}
	}
}

// TestUntrackedWordAccessAllocatesNothing: under the contribution a
// LoadU64/StoreU64 pair on an untracked buffer inside an epoch reads and
// writes in place and reaches no analyzer, so it allocates nothing; it
// still advances the rank's program-order counter once per access, so
// later events keep their Time.
func TestUntrackedWordAccessAllocatesNothing(t *testing.T) {
	err, s := run(t, 1, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		b := p.Alloc("interior", 64, Untracked())
		var accessErr error
		pair := func() {
			v, err := b.LoadU64(8, dbg(1))
			if err == nil {
				err = b.StoreU64(8, v+1, dbg(2))
			}
			if err != nil {
				accessErr = err
			}
		}
		before := p.time
		pair()
		if p.time != before+2 {
			t.Errorf("two untracked accesses advanced the counter by %d, want 2", p.time-before)
		}
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("untracked LoadU64+StoreU64 allocated %.1f times per pair, want 0", n)
		}
		if accessErr != nil {
			return accessErr
		}
		if got := b.Raw()[8]; got != 102 {
			t.Errorf("word after 102 increments starts with byte %d", got)
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range s.Stats() {
		if ws.Accesses != 0 {
			t.Errorf("window %s analysed %d accesses, want none", ws.Name, ws.Accesses)
		}
	}
}

// TestFlightLogListsOnlyAnalysedAccesses: rank 0 puts from src at
// main.c:3, makes six untracked stores at main.c:10, then stores into
// the put's origin bytes at main.c:4. The contribution never analyses
// the untracked stores, so they stay out of its 4-entry flight log and
// the postmortem marks main.c:3 and main.c:4 and nothing else. MUST-RMA
// analyses them, so they stay in its log.
func TestFlightLogListsOnlyAnalysedAccesses(t *testing.T) {
	at := func(line int) access.Debug { return access.Debug{File: "main.c", Line: line} }
	body := func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Alloc("src", 8)
			scratch := p.Alloc("scratch", 64, Untracked())
			if err := w.Put(1, 0, src, 0, 8, at(3)); err != nil {
				return err
			}
			for i := 0; i < 6; i++ {
				if err := scratch.StoreU64(8*i, uint64(i), at(10)); err != nil {
					return err
				}
			}
			if err := src.StoreU64(0, 1, at(4)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	postmortem := func(m detector.Method) (marked []string, dump string) {
		t.Helper()
		_, s := run(t, 2, m, Config{FlightLog: 4}, body)
		race := s.Race()
		if race == nil {
			t.Fatalf("%v: the store into the put's origin bytes was not reported", m)
		}
		rr := RaceReport(race)
		var sb strings.Builder
		rr.WriteFlight(&sb)
		for _, ln := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(ln, ">>") {
				marked = append(marked, ln[strings.LastIndex(ln, " ")+1:])
			}
		}
		return marked, sb.String()
	}

	marked, dump := postmortem(detector.OurContribution)
	if strings.Join(marked, " ") != "main.c:3 main.c:4" || strings.Contains(dump, "main.c:10") {
		t.Errorf("contribution postmortem marks %v, want [main.c:3 main.c:4] and no main.c:10:\n%s", marked, dump)
	}
	if _, dump := postmortem(detector.MustRMAMethod); !strings.Contains(dump, "main.c:10") {
		t.Errorf("MUST-RMA flight log lost the untracked stores it analysed:\n%s", dump)
	}
}
