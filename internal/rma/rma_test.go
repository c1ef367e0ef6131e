package rma

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/mpi"
)

func dbg(line int) access.Debug { return access.Debug{File: "prog.c", Line: line} }

// run executes body as an SPMD program of n ranks under the given
// method and returns the run error and the session.
func run(t *testing.T, n int, method detector.Method, cfg Config, body func(p *Proc) error) (error, *Session) {
	t.Helper()
	cfg.Method = method
	world := mpi.NewWorld(n)
	s := NewSession(world, cfg)
	err := world.Run(func(mp *mpi.Proc) error { return body(s.Proc(mp)) })
	s.Close()
	return err, s
}

func TestPutMovesData(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Alloc("src", 8)
			copy(src.Raw(), "ABCDEFGH")
			if err := w.Put(1, 16, src, 0, 8, dbg(1)); err != nil {
				return err
			}
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			if got := w.Buffer().Raw()[16:24]; !bytes.Equal(got, []byte("ABCDEFGH")) {
				t.Errorf("window content = %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetMovesData(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			copy(w.Buffer().Raw()[8:], "xyz") // pre-epoch initialisation
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			dst := p.Alloc("dst", 16)
			if err := w.Get(dst, 4, 1, 8, 3, dbg(2)); err != nil {
				return err
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
			if got := dst.Raw()[4:7]; !bytes.Equal(got, []byte("xyz")) {
				t.Errorf("got %q", got)
			}
			return nil
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutOutsideEpochFails(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Alloc("src", 8)
			if err := w.Put(1, 0, src, 0, 8, dbg(1)); !errors.Is(err, ErrNoEpoch) {
				t.Errorf("Put outside epoch: err = %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleLockAllFails(t *testing.T) {
	err, _ := run(t, 1, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := w.LockAll(); !errors.Is(err, ErrEpochOpen) {
			t.Errorf("double LockAll: err = %v", err)
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// code1 is the paper's Code 1 (Fig. 8a): P0 loads buf[4], Puts
// buf[2..11] to P1's window, stores buf[7].
func code1(p *Proc) error {
	w, err := p.WinCreate("X", 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	if p.Rank() == 0 {
		buf := p.Alloc("buf", 32)
		if _, err := buf.Load(4, 1, dbg(10)); err != nil {
			return err
		}
		if err := w.Put(1, 0, buf, 2, 10, dbg(11)); err != nil {
			return err
		}
		if err := buf.Store(7, []byte{0x12}, dbg(12)); err != nil {
			return err
		}
	}
	return w.UnlockAll()
}

func TestCode1EndToEnd(t *testing.T) {
	// The contribution aborts with a race whose report names the Put
	// and the Store lines.
	err, s := run(t, 2, detector.OurContribution, Config{}, code1)
	if err == nil || s.Race() == nil {
		t.Fatal("contribution must detect the Code 1 race")
	}
	msg := s.Race().Message()
	if !strings.Contains(msg, "prog.c:12") || !strings.Contains(msg, "prog.c:11") {
		t.Errorf("race message lacks debug info: %s", msg)
	}

	// Legacy RMA-Analyzer misses it (Fig. 5a).
	err, s = run(t, 2, detector.RMAAnalyzer, Config{}, code1)
	if err != nil || s.Race() != nil {
		t.Fatalf("legacy must miss Code 1 (err=%v race=%v)", err, s.Race())
	}
}

// loadThenGet is ll_load_get_inwindow_origin_safe: safe program order.
func loadThenGet(p *Proc) error {
	w, err := p.WinCreate("X", 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	if p.Rank() == 0 {
		// The origin's own window region is both loaded and then used
		// as the Get destination.
		if _, err := w.Buffer().Load(0, 8, dbg(20)); err != nil {
			return err
		}
		if err := w.Get(w.Buffer(), 0, 1, 0, 8, dbg(21)); err != nil {
			return err
		}
	}
	return w.UnlockAll()
}

func TestOrderSensitivityEndToEnd(t *testing.T) {
	if err, s := run(t, 2, detector.OurContribution, Config{}, loadThenGet); err != nil || s.Race() != nil {
		t.Fatalf("contribution flagged the safe Load;Get: %v", s.Race())
	}
	// Legacy raises its published false positive here.
	if _, s := run(t, 2, detector.RMAAnalyzer, Config{}, loadThenGet); s.Race() == nil {
		t.Fatal("legacy should flag Load;Get (published false positive)")
	}
}

func TestCrossOriginPutPutRace(t *testing.T) {
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 1 || p.Rank() == 2 {
			src := p.Alloc("src", 8)
			if err := w.Put(0, 0, src, 0, 8, dbg(30+p.Rank())); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	for _, m := range []detector.Method{detector.OurContribution, detector.RMAAnalyzer, detector.MustRMAMethod} {
		if _, s := run(t, 3, m, Config{}, body); s.Race() == nil {
			t.Errorf("%v missed the two-origin Put/Put race", m)
		}
	}
}

func TestEpochSeparation(t *testing.T) {
	// Conflicting accesses in different epochs never race.
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 2; epoch++ {
			if err := w.LockAll(); err != nil {
				return err
			}
			if p.Rank() == 1 {
				src := p.Alloc("src", 8)
				if err := w.Put(0, 0, src, 0, 8, dbg(40+epoch)); err != nil {
					return err
				}
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, m := range []detector.Method{detector.OurContribution, detector.RMAAnalyzer, detector.MustRMAMethod} {
		if err, s := run(t, 2, m, Config{}, body); err != nil || s.Race() != nil {
			t.Errorf("%v: cross-epoch accesses raced: err=%v race=%v", m, err, s.Race())
		}
	}
}

func TestManyPutsNoDeadlockAndCounts(t *testing.T) {
	const n = 8
	err, s := run(t, n, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("X", 64*n)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		src := p.Alloc("src", 64)
		// Every rank puts 50 adjacent single bytes into its dedicated
		// segment of every target; duplicate writes to one location
		// would themselves be races (Fig. 9).
		for target := 0; target < n; target++ {
			for k := 0; k < 50; k++ {
				if err := w.Put(target, 64*p.Rank()+k, src, k, 1, dbg(50)); err != nil {
					return err
				}
			}
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Race() != nil {
		t.Fatalf("unexpected race: %v", s.Race())
	}
	stats := s.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Per-rank accesses: each rank issues n*50 origin-side accesses and
	// receives n*50 target-side ones.
	if stats[0].Accesses != uint64(2*n*n*50) {
		t.Fatalf("accesses = %d, want %d", stats[0].Accesses, 2*n*n*50)
	}
	// Merging collapses each rank's tree to at most a handful of nodes:
	// one per origin segment plus the origin-side buffer.
	for r, nn := range stats[0].PerRankMaxNodes {
		if nn > n+2 {
			t.Errorf("rank %d max nodes = %d, want <= %d", r, nn, n+2)
		}
	}
}

func TestUntrackedBufferFilteredForTreesNotMust(t *testing.T) {
	// A racy pattern on an untracked buffer: the alias filter hides the
	// local access from the tree analyzers, but MUST still sees it.
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := p.Alloc("scratch", 16, Untracked())
			if err := w.Get(buf, 0, 1, 0, 8, dbg(60)); err != nil {
				return err
			}
			if _, err := buf.Load(0, 8, dbg(61)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	// In a real toolchain the alias analysis would never mark a buffer
	// that is passed to MPI_Get as filtered; Untracked here simulates
	// an (unsound) over-aggressive filter to show who depends on it.
	if _, s := run(t, 2, detector.OurContribution, Config{}, body); s.Race() != nil {
		t.Fatal("tree analyzer saw a filtered access")
	}
	if _, s := run(t, 2, detector.MustRMAMethod, Config{}, body); s.Race() == nil {
		t.Fatal("MUST must see through the alias filter")
	}
}

func TestDisableAliasFilterAblation(t *testing.T) {
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := p.Alloc("scratch", 16, Untracked())
			if err := w.Get(buf, 0, 1, 0, 8, dbg(60)); err != nil {
				return err
			}
			if _, err := buf.Load(0, 8, dbg(61)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	if _, s := run(t, 2, detector.OurContribution, Config{DisableAliasFilter: true}, body); s.Race() == nil {
		t.Fatal("with the alias filter disabled the race must be visible")
	}
}

func TestStackArrayMustFalseNegative(t *testing.T) {
	// ll_get_load_inwindow_origin_race with a stack array (Table 2).
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := p.Alloc("stackbuf", 16, OnStack())
			if err := w.Get(buf, 0, 1, 0, 8, dbg(70)); err != nil {
				return err
			}
			if _, err := buf.Load(0, 8, dbg(71)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	if _, s := run(t, 2, detector.MustRMAMethod, Config{}, body); s.Race() != nil {
		t.Fatal("MUST instrumented a stack array (should be its published false negative)")
	}
	if _, s := run(t, 2, detector.OurContribution, Config{}, body); s.Race() == nil {
		t.Fatal("the contribution must catch the stack-array race")
	}
}

func TestUnsafeFlushClearHidesRace(t *testing.T) {
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := p.Alloc("buf", 16)
			if err := w.Get(buf, 0, 1, 0, 8, dbg(80)); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			if _, err := buf.Load(0, 8, dbg(81)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	// Default (sound) flush handling: the Get;Load race survives the
	// flush because flush does not synchronise other processes (§6).
	if _, s := run(t, 2, detector.OurContribution, Config{}, body); s.Race() == nil {
		t.Fatal("race across a flush must still be reported by default")
	}
	// Unsafe ablation: clearing on flush hides it.
	if _, s := run(t, 2, detector.OurContribution, Config{UnsafeFlushClear: true}, body); s.Race() != nil {
		t.Fatal("unsafe flush-clear mode should produce the false negative")
	}
}

func TestEpochTimeAccumulates(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := w.LockAll(); err != nil {
				return err
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total, perRank := s.EpochTime()
	if total <= 0 || len(perRank) != 2 {
		t.Fatalf("EpochTime = %v, %v", total, perRank)
	}
}

func TestWinCreateSizeMismatch(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		size := 64
		if p.Rank() == 1 {
			size = 128
		}
		_, err := p.WinCreate("X", size)
		if p.Rank() == 1 && err == nil {
			// Rank 1 may have arrived first and created the window; in
			// that case rank 0 gets the error instead. Either way one
			// rank errors, which aborts via body return below.
			return nil
		}
		return err
	})
	// One of the two ranks must have failed (or, if creation raced the
	// other way, the world aborted); accept any non-nil or nil outcome
	// but require no hang. The strict contract is exercised in
	// TestWinRecreateMismatchDirect.
	_ = err
}

func TestWinRecreateMismatchDirect(t *testing.T) {
	world := mpi.NewWorld(1)
	s := NewSession(world, Config{Method: detector.Baseline})
	err := world.Run(func(mp *mpi.Proc) error {
		p := s.Proc(mp)
		if _, err := p.WinCreate("X", 64); err != nil {
			return err
		}
		if _, err := p.WinCreate("X", 128); err == nil {
			t.Error("size mismatch accepted")
		}
		return nil
	})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfPut(t *testing.T) {
	err, s := run(t, 1, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		src := p.Alloc("src", 8)
		copy(src.Raw(), "12345678")
		if err := w.Put(0, 0, src, 0, 8, dbg(90)); err != nil {
			return err
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		if !bytes.Equal(w.Buffer().Raw()[:8], []byte("12345678")) {
			t.Error("self-put did not move data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Race() != nil {
		t.Fatalf("self-put raced: %v", s.Race())
	}
}

func TestWinFreeLifecycle(t *testing.T) {
	err, _ := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := w.Free(); err == nil {
			t.Error("Free with an open epoch accepted")
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		src := p.Alloc("src", 8)
		if err := w.Put((p.Rank()+1)%2, 0, src, 0, 8, dbg(1)); !errors.Is(err, ErrFreed) {
			t.Errorf("Put after Free: %v", err)
		}
		if err := w.LockAll(); !errors.Is(err, ErrFreed) {
			t.Errorf("LockAll after Free: %v", err)
		}
		if err := w.Lock(LockExclusive, 0); !errors.Is(err, ErrFreed) {
			t.Errorf("Lock after Free: %v", err)
		}
		if err := w.Free(); !errors.Is(err, ErrFreed) {
			t.Errorf("double Free: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinFreeWithHeldLockRejected(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Lock(LockExclusive, 1); err != nil {
				return err
			}
			if err := w.Free(); err == nil {
				t.Error("Free with a held lock accepted")
			}
			if err := w.Unlock(1); err != nil {
				return err
			}
		}
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierDoesNotSynchroniseEpoch encodes §6(1): per the MPI
// standard an MPI_Barrier does not terminate one-sided communications,
// and the analyzers deliberately do not treat it as a synchronisation
// point — a conflicting access after the barrier still races.
func TestBarrierDoesNotSynchroniseEpoch(t *testing.T) {
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			src := p.Alloc("src", 8)
			if err := w.Put(0, 0, src, 0, 8, dbg(70)); err != nil {
				return err
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Buffer().Store(0, make([]byte, 8), dbg(71)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	for _, m := range []detector.Method{detector.OurContribution, detector.MustRMAMethod} {
		if _, s := run(t, 2, m, Config{}, body); s.Race() == nil {
			t.Errorf("%v treated MPI_Barrier as a synchronisation point", m)
		}
	}
}

// TestFlushAllThenBarrierStillConservative: §6(1) recommends
// MPI_Win_flush_all followed by MPI_Barrier to synchronise within an
// epoch, but notes the tools cannot instrument flush soundly — so the
// analyzers conservatively keep reporting, trading this false positive
// for the false negatives unsound flush-clearing would cause (§6(2)).
func TestFlushAllThenBarrierStillConservative(t *testing.T) {
	body := func(p *Proc) error {
		w, err := p.WinCreate("X", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			src := p.Alloc("src", 8)
			if err := w.Put(0, 0, src, 0, 8, dbg(72)); err != nil {
				return err
			}
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Buffer().Store(0, make([]byte, 8), dbg(73)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	}
	if _, s := run(t, 2, detector.OurContribution, Config{}, body); s.Race() == nil {
		t.Error("flush_all+barrier was treated as sound synchronisation (unsupported, §6(2))")
	}
}
