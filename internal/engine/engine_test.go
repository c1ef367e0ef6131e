package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/vc"
)

// stubAnalyzer records everything it is fed; an optional gate blocks
// Access so tests can hold the receiver mid-batch.
type stubAnalyzer struct {
	mu       sync.Mutex
	events   []detector.Event
	released []int
	epochs   int
	gate     chan struct{}
	raceAt   uint64 // Time value that triggers a race report
}

func (s *stubAnalyzer) Name() string { return "stub" }

func (s *stubAnalyzer) Access(ev detector.Event) *detector.Race {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	if s.raceAt != 0 && ev.Time == s.raceAt {
		return &detector.Race{Cur: ev.Acc}
	}
	return nil
}

func (s *stubAnalyzer) EpochEnd() {
	s.mu.Lock()
	s.epochs++
	s.mu.Unlock()
}

func (s *stubAnalyzer) Flush(int) {}

func (s *stubAnalyzer) Release(rank int) {
	s.mu.Lock()
	s.released = append(s.released, rank)
	s.mu.Unlock()
}

func (s *stubAnalyzer) Nodes() int       { return 0 }
func (s *stubAnalyzer) MaxNodes() int    { return 0 }
func (s *stubAnalyzer) Accesses() uint64 { return 0 }

func (s *stubAnalyzer) snapshot() []detector.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]detector.Event, len(s.events))
	copy(out, s.events)
	return out
}

func ev(lo, n uint64, t uint64) detector.Event {
	return detector.Event{
		Acc:  access.Access{Interval: interval.Span(lo, n), Type: access.RMAWrite, Rank: 1},
		Time: t,
	}
}

// within fails the test if fn does not return inside d — the deadlock
// guard for the quiescence-protocol tests.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("timed out (%v): %s", d, what)
	}
}

func newTestEngine(t *testing.T, ranks, channelCap int, stubs []*stubAnalyzer, opt func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Ranks:       ranks,
		ChannelCap:  channelCap,
		NewAnalyzer: func(r int) detector.Analyzer { return stubs[r] },
	}
	if opt != nil {
		opt(&cfg)
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestNotifyBatchesAndWaitReceived(t *testing.T) {
	stub := &stubAnalyzer{}
	e := newTestEngine(t, 1, 8, []*stubAnalyzer{stub}, nil)

	if err := e.Notify(0, []detector.Event{ev(0, 8, 1), ev(8, 8, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Notify(0, []detector.Event{ev(16, 8, 3)}, 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "WaitReceived(3)", func() {
		if err := e.WaitReceived(0, 3); err != nil {
			t.Error(err)
		}
	})
	if got := e.Received(0); got != 3 {
		t.Fatalf("Received = %d, want 3", got)
	}
	if got := len(stub.snapshot()); got != 3 {
		t.Fatalf("analyzer saw %d events, want 3", got)
	}
}

func TestEpochStamping(t *testing.T) {
	stub := &stubAnalyzer{}
	e := newTestEngine(t, 1, 8, []*stubAnalyzer{stub}, nil)

	if err := e.Notify(0, []detector.Event{ev(0, 8, 1), ev(8, 8, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "drain epoch 0", func() { _ = e.WaitReceived(0, 2) })
	e.EpochEnd(0)
	if got := e.Epoch(0); got != 1 {
		t.Fatalf("Epoch = %d, want 1", got)
	}
	if err := e.Notify(0, []detector.Event{ev(16, 8, 3)}, 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "drain epoch 1", func() { _ = e.WaitReceived(0, 3) })

	events := stub.snapshot()
	wantEpochs := []uint64{0, 0, 1}
	for i, w := range wantEpochs {
		if events[i].Acc.Epoch != w {
			t.Errorf("event %d stamped epoch %d, want %d", i, events[i].Acc.Epoch, w)
		}
	}
	if stub.epochs != 1 {
		t.Errorf("analyzer EpochEnd ran %d times, want 1", stub.epochs)
	}
}

func TestSyncMarkerReleasesAndAcks(t *testing.T) {
	stub := &stubAnalyzer{}
	e := newTestEngine(t, 1, 8, []*stubAnalyzer{stub}, nil)

	ack := make(chan struct{})
	if err := e.SendSync(0, 3, true, ack); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "sync ack", func() { <-ack })
	if got := e.Received(0); got != 1 {
		t.Fatalf("Received = %d, want 1 (marker counts)", got)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.released) != 1 || stub.released[0] != 3 {
		t.Fatalf("released = %v, want [3]", stub.released)
	}
}

// TestOverflowBackpressure is the regression test for the silent
// channel-full fallback: a burst larger than the channel capacity must
// neither drop a notification nor deadlock, and the backpressure must
// show up in the overflow counter.
func TestOverflowBackpressure(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubAnalyzer{gate: gate}
	e := newTestEngine(t, 1, 2, []*stubAnalyzer{stub}, nil)

	const n = 20
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := e.Notify(0, []detector.Event{ev(uint64(i)*8, 8, uint64(i+1))}, 0); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// The receiver holds one batch at the gate, the channel buffers two
	// more, so the sender must hit the overflow path.
	within(t, 5*time.Second, "overflow to register", func() {
		for e.Overflows(0) == 0 {
			time.Sleep(time.Millisecond)
		}
	})

	close(gate) // let the receiver drain everything
	within(t, 5*time.Second, "drain after overflow", func() {
		if err := e.WaitReceived(0, n); err != nil {
			t.Error(err)
		}
	})
	if err := <-sendErr; err != nil {
		t.Fatalf("Notify: %v", err)
	}
	if got := e.Received(0); got != n {
		t.Fatalf("Received = %d, want %d (nothing may be dropped)", got, n)
	}
	if got := len(stub.snapshot()); got != n {
		t.Fatalf("analyzer saw %d events, want %d", got, n)
	}
	if e.TotalOverflows() == 0 {
		t.Fatal("overflow counter did not register the full channel")
	}
}

func TestRaceReportedThroughCallback(t *testing.T) {
	stub := &stubAnalyzer{raceAt: 7}
	var got atomic.Pointer[detector.Race]
	e := newTestEngine(t, 1, 8, []*stubAnalyzer{stub}, func(cfg *Config) {
		cfg.OnRace = func(r *detector.Race) { got.CompareAndSwap(nil, r) }
	})

	if err := e.Notify(0, []detector.Event{ev(0, 8, 7)}, 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "race callback", func() {
		for got.Load() == nil {
			time.Sleep(time.Millisecond)
		}
	})
	if race := e.Analyse(0, ev(8, 8, 7)); race == nil {
		t.Fatal("Analyse did not return the race")
	}
}

func TestStopUnblocksEverything(t *testing.T) {
	stop := make(chan struct{})
	gate := make(chan struct{})
	stub := &stubAnalyzer{gate: gate}
	e := newTestEngine(t, 1, 1, []*stubAnalyzer{stub}, func(cfg *Config) {
		cfg.Stop = stop
	})

	// Fill the pipeline: one batch at the gate, one in the channel.
	_ = e.Notify(0, []detector.Event{ev(0, 8, 1)}, 0)
	_ = e.Notify(0, []detector.Event{ev(8, 8, 2)}, 0)

	waitErr := make(chan error, 1)
	go func() { waitErr <- e.WaitReceived(0, 10) }()
	sendRet := make(chan error, 1)
	go func() { sendRet <- e.Notify(0, []detector.Event{ev(16, 8, 3)}, 0) }()

	time.Sleep(10 * time.Millisecond)
	close(stop)

	within(t, 5*time.Second, "waiter to observe stop", func() {
		if err := <-waitErr; err == nil {
			t.Error("WaitReceived returned nil after stop")
		}
	})
	within(t, 5*time.Second, "blocked sender to observe stop", func() {
		if err := <-sendRet; err == nil {
			t.Error("Notify returned nil after stop")
		}
	})
	close(gate)
}

func TestCloseUnblocksBlockedSender(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubAnalyzer{gate: gate}
	e := newTestEngine(t, 1, 1, []*stubAnalyzer{stub}, nil)

	_ = e.Notify(0, []detector.Event{ev(0, 8, 1)}, 0)
	_ = e.Notify(0, []detector.Event{ev(8, 8, 2)}, 0)
	sendRet := make(chan error, 1)
	go func() { sendRet <- e.Notify(0, []detector.Event{ev(16, 8, 3)}, 0) }()

	time.Sleep(10 * time.Millisecond)
	e.Close()
	within(t, 5*time.Second, "blocked sender to observe close", func() {
		if err := <-sendRet; err != ErrClosed {
			t.Errorf("Notify = %v, want ErrClosed", err)
		}
	})
	close(gate)
}

// TestBatchSlicesOutliveTheirEngine: the batch slice a closed engine's
// receiver returned after analysis is the next one GetEventBuf hands
// out, without an allocation, and it comes back cleared, so the free
// list keeps no finished session's clocks or debug strings alive. The
// engine the next session builds analyses a batch in it as usual.
func TestBatchSlicesOutliveTheirEngine(t *testing.T) {
	stubs := []*stubAnalyzer{{}}
	first := New(Config{Ranks: 1, NewAnalyzer: func(int) detector.Analyzer { return stubs[0] }})
	evs := append(GetEventBuf(), ev(0, 8, 1), ev(8, 8, 2))
	evs[0].Acc.Debug = access.Debug{File: "main.c", Line: 3}
	evs[1].Clock = vc.New(4)
	slot := &evs[:1][0]
	if err := first.Notify(0, evs, 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "WaitReceived(2)", func() {
		if err := first.WaitReceived(0, 2); err != nil {
			t.Error(err)
		}
	})
	first.Close()

	var got []detector.Event
	if n := testing.AllocsPerRun(10, func() {
		got = GetEventBuf()
		putEventBuf(got)
	}); n != 0 {
		t.Errorf("GetEventBuf allocated %.1f times per call with a returned slice pooled", n)
	}
	got = GetEventBuf()
	if len(got) != 0 || cap(got) < 2 || &got[:1][0] != slot {
		t.Fatalf("GetEventBuf handed out a new slice (len %d, cap %d), not the one the closed engine returned", len(got), cap(got))
	}
	for i, x := range got[:cap(got)] {
		if !reflect.ValueOf(x).IsZero() {
			t.Fatalf("pooled slot %d kept %+v", i, x)
		}
	}

	stub := &stubAnalyzer{}
	next := newTestEngine(t, 1, 8, []*stubAnalyzer{stub}, nil)
	if err := next.Notify(0, append(got, ev(16, 8, 3)), 0); err != nil {
		t.Fatal(err)
	}
	within(t, 5*time.Second, "WaitReceived(1)", func() {
		if err := next.WaitReceived(0, 1); err != nil {
			t.Error(err)
		}
	})
	if evs := stub.snapshot(); len(evs) != 1 || evs[0].Time != 3 {
		t.Fatalf("next engine analysed %+v, want the one event at time 3", evs)
	}
}
