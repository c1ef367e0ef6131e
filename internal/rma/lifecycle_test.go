package rma

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/mpi"
)

// TestCloseRacesInflightNotifications closes a baseline session while
// every rank is still pumping Put notifications; see closeUnderFire.
func TestCloseRacesInflightNotifications(t *testing.T) {
	closeUnderFire(t, detector.Baseline)
}

// TestCloseRacesInflightContributionNotifications is the same close
// under fire with the contribution analyzer on every receiver.
func TestCloseRacesInflightContributionNotifications(t *testing.T) {
	closeUnderFire(t, detector.OurContribution)
}

// closeUnderFire closes the session while every rank is still pumping
// Put notifications. Nothing may panic (the engine never closes a
// channel a sender could still be on) and the world must wind down:
// senders observe the close as an error instead of blocking forever.
// Every receiver, stop-watcher and lock-server goroutine must exit too,
// also when the close lands before the ranks have created the window.
func closeUnderFire(t *testing.T, method detector.Method) {
	t.Helper()
	before := runtime.NumGoroutine()
	world := mpi.NewWorld(4)
	// NotifBatch 1 keeps a constant stream of channel sends in flight.
	s := NewSession(world, Config{Method: method, NotifBatch: 1})

	done := make(chan error, 1)
	go func() {
		done <- world.Run(func(mp *mpi.Proc) error {
			p := s.Proc(mp)
			w, err := p.WinCreate("w", 4*8192)
			if err != nil {
				return err
			}
			if err := w.LockAll(); err != nil {
				return err
			}
			src := p.Alloc("src", 1)
			target := (p.Rank() + 1) % p.Size()
			for i := 0; i < 8192; i++ {
				// Disjoint per-origin byte streams: no races, just load.
				off := p.Rank()*8192 + i
				if err := w.Put(target, off, src, 0, 1, dbg(i)); err != nil {
					return nil // the close arrived mid-stream: wind down
				}
			}
			return nil
		})
	}()

	time.Sleep(2 * time.Millisecond) // let the streams start flowing
	s.Close()
	s.Close() // double close must stay harmless

	select {
	case err := <-done:
		// Ranks either finished their streams or observed the close;
		// both are fine — only hangs and panics are failures.
		_ = err
	case <-time.After(10 * time.Second):
		t.Fatal("world did not wind down after Session.Close")
	}
	// Poll: the receivers observe the close asynchronously.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked after close: %d before, %d after",
				before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestWinCreateAfterClose closes the session before any rank has
// created its window, the order closeUnderFire hits when its ranks are
// scheduled late. WinCreate must fail instead
// of starting receivers and a lock server that Close can no longer
// stop.
func TestWinCreateAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	world := mpi.NewWorld(2)
	s := NewSession(world, Config{Method: detector.OurContribution})
	s.Close()
	err := world.Run(func(mp *mpi.Proc) error {
		_, err := s.Proc(mp).WinCreate("w", 64)
		return err
	})
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("WinCreate after Close: got %v, want ErrSessionClosed", err)
	}
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestWinFreeInflight frees a window (collective barrier + notification
// flush) while batched notifications are still draining, then
// re-creates and reuses it — the Free/recreate path must keep the
// received-count accounting consistent.
func TestWinFreeInflight(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{NotifBatch: 4}, func(p *Proc) error {
		for round := 0; round < 3; round++ {
			w, err := p.WinCreate("reused", 2*4096)
			if err != nil {
				return err
			}
			if err := w.LockAll(); err != nil {
				return err
			}
			src := p.Alloc(fmt.Sprintf("src%d", round), 8)
			for i := 0; i < 64; i++ {
				off := p.Rank()*4096 + i*8
				if err := w.Put((p.Rank()+1)%2, off, src, 0, 8, dbg(round*100+i)); err != nil {
					return err
				}
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
			if err := w.Free(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Race(); r != nil {
		t.Fatalf("safe free/recreate run reported a race: %v", r)
	}
}

// TestWinFreeNameReuse frees a window and re-creates one under the same
// name, twice, then proves the analysis pipeline is still live on the
// reused window by detecting a planted race. A stacked duplicate
// receiver or a dead one would hang the quiescence protocol or miss
// the race.
func TestWinFreeNameReuse(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		for round := 0; round < 2; round++ {
			w, err := p.WinCreate("reused", 64)
			if err != nil {
				return err
			}
			if err := w.LockAll(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				src := p.Alloc(fmt.Sprintf("src%d", round), 8)
				if err := w.Put(1, 0, src, 0, 8, dbg(round)); err != nil {
					return err
				}
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
			if err := w.Free(); err != nil {
				return err
			}
			if err := w.LockAll(); !errors.Is(err, ErrFreed) {
				return fmt.Errorf("LockAll after Free = %v, want ErrFreed", err)
			}
		}

		// Planted race on the re-created window: rank 0's Put against
		// rank 1's local store of the same window bytes.
		w, err := p.WinCreate("reused", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Alloc("racy-src", 8)
			if err := w.Put(1, 0, src, 0, 8, dbg(100)); err != nil {
				return err
			}
		} else {
			if err := w.Buffer().Store(0, []byte{1}, dbg(101)); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	})
	if s.Race() == nil {
		t.Fatalf("planted race on reused window not detected (err=%v)", err)
	}
}
