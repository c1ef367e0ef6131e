package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryRank(t *testing.T) {
	var count int64
	w := NewWorld(8)
	err := w.Run(func(p *Proc) error {
		atomic.AddInt64(&count, 1)
		if p.Size() != 8 {
			return fmt.Errorf("size = %d", p.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("ran %d ranks", count)
	}
}

func TestNewWorldValidatesSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) must panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			return p.Send(1, 7, []byte("hello"))
		case 1:
			m, err := p.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(m.Data) != "hello" || m.Src != 0 {
				return fmt.Errorf("got %+v", m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatchingBuffersOthers(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			if err := p.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return p.Send(1, 2, []byte("second"))
		}
		// Receive out of order: tag 2 first.
		m2, err := p.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := p.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m2.Data) != "second" || string(m1.Data) != "first" {
			return fmt.Errorf("wrong matching: %q %q", m2.Data, m1.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return p.Send(0, 5, []byte{byte(p.Rank())})
		}
		seen := map[byte]bool{}
		for i := 0; i < 2; i++ {
			m, err := p.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			seen[m.Data[0]] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("seen = %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	const n = 16
	w := NewWorld(n)
	var phase1 int64
	err := w.Run(func(p *Proc) error {
		atomic.AddInt64(&phase1, 1)
		if err := p.Barrier(); err != nil {
			return err
		}
		if got := atomic.LoadInt64(&phase1); got != n {
			return fmt.Errorf("rank %d passed barrier with phase1=%d", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	err := w.Run(func(p *Proc) error {
		got, err := p.Allreduce([]int64{int64(p.Rank()), 1}, OpSum)
		if err != nil {
			return err
		}
		if got[0] != n*(n-1)/2 || got[1] != n {
			return fmt.Errorf("allreduce = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	err := w.Run(func(p *Proc) error {
		mx, err := p.Allreduce([]int64{int64(p.Rank())}, OpMax)
		if err != nil {
			return err
		}
		if mx[0] != n-1 {
			return fmt.Errorf("max = %v", mx)
		}
		mn, err := p.Allreduce([]int64{int64(p.Rank())}, OpMin)
		if err != nil {
			return err
		}
		if mn[0] != 0 {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOnlyRoot(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	err := w.Run(func(p *Proc) error {
		got, err := p.Reduce(2, []int64{1}, OpSum)
		if err != nil {
			return err
		}
		if p.Rank() == 2 {
			if got == nil || got[0] != n {
				return fmt.Errorf("root got %v", got)
			}
		} else if got != nil {
			return fmt.Errorf("non-root got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(p *Proc) error {
		var payload []byte
		if p.Rank() == 3 {
			payload = []byte("root-data")
		}
		got, err := p.Bcast(3, payload)
		if err != nil {
			return err
		}
		if string(got) != "root-data" {
			return fmt.Errorf("rank %d bcast = %q", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveMismatchAborts(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Barrier()
		}
		_, err := p.Allreduce([]int64{1}, OpSum)
		return err
	})
	if err == nil {
		t.Fatal("mismatched collectives must abort the world")
	}
}

func TestAbortUnblocksEverything(t *testing.T) {
	w := NewWorld(3)
	boom := errors.New("boom")
	start := time.Now()
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			time.Sleep(10 * time.Millisecond)
			return boom
		case 1:
			_, err := p.Recv(0, 99) // never sent
			return err
		default:
			return p.Barrier() // never completed
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("abort did not unblock promptly")
	}
}

func TestRunReportsPanicsAsAbort(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("kaboom")
		}
		return p.Barrier()
	})
	if err == nil {
		t.Fatal("panic in a rank must abort the world")
	}
}

func TestSendInvalidRank(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(p *Proc) error {
		if err := p.Send(5, 0, nil); err == nil {
			return errors.New("send to invalid rank succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocAddrDisjointPerRankAndAligned(t *testing.T) {
	w := NewWorld(2)
	type region struct{ base, size uint64 }
	regions := make([][]region, 2)
	err := w.Run(func(p *Proc) error {
		for i := 0; i < 10; i++ {
			size := uint64(100 + i)
			base := p.AllocAddr(size)
			if base%64 != 0 {
				return fmt.Errorf("unaligned base %d", base)
			}
			regions[p.Rank()] = append(regions[p.Rank()], region{base, size})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		rs := regions[r]
		for i := 1; i < len(rs); i++ {
			prevEnd := rs[i-1].base + rs[i-1].size
			if rs[i].base < prevEnd+64 {
				t.Fatalf("rank %d allocations too close: %v then %v", r, rs[i-1], rs[i])
			}
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	const n = 128
	w := NewWorld(n)
	err := w.Run(func(p *Proc) error {
		// Ring exchange plus collectives.
		next := (p.Rank() + 1) % n
		prev := (p.Rank() - 1 + n) % n
		if err := p.Send(next, 1, []byte{byte(p.Rank())}); err != nil {
			return err
		}
		m, err := p.Recv(prev, 1)
		if err != nil {
			return err
		}
		if int(m.Data[0]) != prev {
			return fmt.Errorf("ring got %d want %d", m.Data[0], prev)
		}
		sum, err := p.Allreduce([]int64{1}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != n {
			return fmt.Errorf("sum = %d", sum[0])
		}
		return p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInboxesMadeOnFirstUse: a rank's 4,096-slot mailbox is made by the
// first Send to it or Recv on it, so a world whose ranks only take
// collectives holds none, and NewWorld's allocation does not grow by a
// mailbox per rank. Messages still arrive whichever side of a pair
// reaches the mailbox first.
func TestInboxesMadeOnFirstUse(t *testing.T) {
	const n = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := NewWorld(n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("NewWorld(%d) allocated %d bytes, want at most 64 KiB", n, got)
	}
	if err := w.Run(func(p *Proc) error {
		_, err := p.Allreduce([]int64{1}, OpSum)
		if err == nil {
			err = p.Barrier()
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r, box := range w.inboxes {
		if box != nil {
			t.Fatalf("rank %d has an inbox after a collectives-only run", r)
		}
	}

	// Ranks 0 and 2 send to ranks 1 and 3: only the receivers' mailboxes
	// are made.
	w = NewWorld(4)
	if err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0, 2:
			return p.Send(p.Rank()+1, 5, []byte{byte(p.Rank())})
		default:
			m, err := p.Recv(p.Rank()-1, 5)
			if err == nil && (m.Src != p.Rank()-1 || len(m.Data) != 1 || int(m.Data[0]) != m.Src) {
				err = fmt.Errorf("rank %d got %+v", p.Rank(), m)
			}
			return err
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r, box := range w.inboxes {
		if want := r%2 == 1; (box != nil) != want {
			t.Errorf("rank %d has an inbox: %v, want %v", r, box != nil, want)
		}
	}
}
