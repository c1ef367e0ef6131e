package rma

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/engine"
	"rmarace/internal/mpi"
	"rmarace/internal/obs/span"
	"rmarace/internal/vc"
)

// ErrNoEpoch is returned when a one-sided operation is issued outside a
// passive-target epoch.
var ErrNoEpoch = errors.New("rma: one-sided operation outside an epoch (missing MPI_Win_lock_all)")

// ErrEpochOpen is returned when LockAll is called twice without an
// intervening UnlockAll.
var ErrEpochOpen = errors.New("rma: epoch already open")

// ErrFreed is returned by operations on a window after MPI_Win_free.
var ErrFreed = errors.New("rma: window has been freed (MPI_Win_free)")

// ErrSessionClosed is returned by WinCreate after Session.Close: a
// window created then would start receivers nothing is left to stop.
var ErrSessionClosed = errors.New("rma: session closed")

// DefaultNotifBatch is the notification batch size when Config leaves
// NotifBatch zero: up to this many consecutive target-side accesses to
// the same target coalesce into one channel message. 1 disables
// batching.
const DefaultNotifBatch = 64

// winGlobal is the collective state of one window across all ranks:
// the shared memory and locking plumbing, plus the analysis engine
// (package internal/engine) owning the analyzers, receiver goroutines
// and the count-and-drain quiescence protocol.
type winGlobal struct {
	name  string
	size  int
	id    int // window index within the session, scoping PSCW tags
	ranks int
	s     *Session

	eng *engine.Engine

	mems []*Buffer
	// copyMu serialises every byte of data movement touching this
	// window's memory — remote copies and the owner's instrumented
	// local accesses. The simulator really performs the programs'
	// (possibly racing) accesses; without this serialisation Go's own
	// race detector would flag the deliberately racy example programs.
	// The detectors' analysis is unaffected: they see the access
	// events, not the bytes.
	copyMu sync.Mutex

	lockCh     chan lockReq
	serverOnce sync.Once
}

// Win is one rank's handle on a window: the analogue of an MPI_Win.
type Win struct {
	p   *Proc
	g   *winGlobal
	buf *Buffer

	epoch      uint64
	epochOpen  bool
	epochStart time.Time
	sent       []int64
	expected   int64
	freed      bool
	// pending coalesces consecutive target-side notifications per
	// target into batches of at most batchCap events; every
	// synchronisation that publishes or drains the sent counts flushes
	// first, so the quiescence protocol is unchanged.
	pending  [][]detector.Event
	batchCap int
	// sp/spOn cache the session's span tracer so every instrumentation
	// site pays one branch when tracing is off; epochT0 is the open
	// epoch's start on the tracer clock.
	sp      *span.Tracer
	spOn    bool
	epochT0 int64
	// lockMode tracks this process's per-target MPI_Win_lock state.
	lockMode []int
	// PSCW state: open access-epoch targets and per-target access
	// counts (origin side), and the posted origin group (target side).
	pscwTargets map[int]bool
	pscwSent    map[int]int64
	pscwPosted  []int
	// pscwStart/postStart time the open PSCW access and exposure epochs
	// so Complete and Wait contribute to the Fig. 10 epoch accounting
	// like UnlockAll does.
	pscwStart time.Time
	postStart time.Time
}

// WinCreate collectively creates (or joins) the window named name with
// size bytes of exposed memory per rank, starts the per-rank receiver
// goroutine, and synchronises all ranks before returning. Buffer
// options apply to the exposed memory: pass OnStack to model an
// MPI_Win_create over a stack array (as the paper's microbenchmark
// suite does), or none for MPI_Win_allocate-style heap memory.
func (p *Proc) WinCreate(name string, size int, opts ...BufOpt) (*Win, error) {
	s := p.s
	n := p.Size()

	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil, ErrSessionClosed
	default:
	}
	g, ok := s.wins[name]
	if !ok {
		g = &winGlobal{
			name:   name,
			size:   size,
			id:     len(s.wins),
			ranks:  n,
			s:      s,
			mems:   make([]*Buffer, n),
			lockCh: make(chan lockReq, n),
		}
		g.eng = engine.New(engine.Config{
			Ranks:       n,
			NewAnalyzer: s.newAnalyzer,
			OnRace:      s.abort,
			Stop:        p.World().Aborted(),
			StopErr:     p.World().AbortErr,
			Recorder:    s.rec,
			Window:      name,
			Spans:       s.spans,
			FlightN:     s.cfg.FlightLog,
		})
		s.wins[name] = g
	} else if g.size != size {
		s.mu.Unlock()
		return nil, fmt.Errorf("rma: window %q recreated with size %d != %d", name, size, g.size)
	}
	s.mu.Unlock()

	// Serve MPI_Win_lock/MPI_Win_unlock requests.
	g.serverOnce.Do(func() { go g.lockServer(p.World()) })

	rank := p.Rank()
	buf := p.Alloc(name+".win", size, opts...)
	buf.winG = g
	g.mems[rank] = buf
	// Idempotent: re-joining the window name (MPI_Win_free followed by
	// a fresh create) must not stack a second receiver per rank.
	g.eng.StartReceiver(rank)

	// The engine's drained-notification counter is cumulative over the
	// window name's whole lifetime, surviving MPI_Win_free and
	// re-creation, so this generation's quiescence targets must start
	// from the count already drained — otherwise a re-created window's
	// first epoch would be satisfied by the previous generation's
	// notifications and EpochEnd could clear the store before this
	// epoch's events arrive. Read it BEFORE the creation barrier: every
	// earlier generation was fully drained before its Free barrier and
	// no rank can issue new accesses until the barrier below releases
	// it, so the counter is stable here and only here.
	expectedBase := g.eng.Received(rank)

	if err := p.Barrier(); err != nil {
		return nil, err
	}
	batch := s.cfg.NotifBatch
	if batch <= 0 {
		batch = DefaultNotifBatch
	}
	return &Win{
		p:        p,
		g:        g,
		buf:      buf,
		sent:     make([]int64, n),
		pending:  make([][]detector.Event, n),
		batchCap: batch,
		sp:       s.spans,
		spOn:     s.spans.Enabled(),
		lockMode: make([]int, n),
		expected: expectedBase,
	}, nil
}

// analyse runs one event through rank's analyzer, aborting the world on
// a detected race. It returns the race as an error, or nil.
func (g *winGlobal) analyse(rank int, ev detector.Event) error {
	if race := g.eng.Analyse(rank, ev); race != nil {
		return race
	}
	return nil
}

// Buffer returns the rank's exposed window memory; local accesses on it
// are "in window" accesses.
func (w *Win) Buffer() *Buffer { return w.buf }

// Name returns the window name.
func (w *Win) Name() string { return w.g.name }

// analyse routes a local access of this window's owner.
func (w *Win) analyse(rank int, ev detector.Event) error {
	return w.g.analyse(rank, ev)
}

// notify queues one target-side access for target's receiver,
// coalescing it into the pending batch. The batch is sent when it
// reaches batchCap; synchronisation calls flush the remainder.
func (w *Win) notify(target int, ev detector.Event) error {
	if w.pending[target] == nil {
		// Batch slices come from the engine's pool and are recycled by
		// the receiver after analysis, so the steady-state notification
		// pipeline allocates nothing.
		w.pending[target] = w.g.eng.GetEventBuf()
	}
	w.pending[target] = append(w.pending[target], ev)
	w.countSent(target)
	if len(w.pending[target]) >= w.batchCap {
		return w.flushNotifs(target)
	}
	return nil
}

// flushNotifs hands target's pending notification batch to the engine.
// With tracing on it opens the batch's causal flow: a notif-send span
// here, closed by the engine's notif-batch span on the target, renders
// the cross-rank edge in the exported timeline.
func (w *Win) flushNotifs(target int) error {
	batch := w.pending[target]
	if len(batch) == 0 {
		return nil
	}
	w.pending[target] = nil // next notify takes a fresh pooled slice
	if !w.spOn {
		return w.g.eng.Notify(target, batch)
	}
	flow := w.sp.NextFlow()
	t0 := w.sp.Now()
	err := w.g.eng.NotifyFlow(target, batch, flow)
	w.sp.Record(w.p.Rank(), span.Record{
		Kind:  span.KindNotifSend,
		Start: t0, Dur: w.sp.Now() - t0,
		A: int64(target), B: int64(len(batch)),
		Flow: flow, Phase: span.FlowStart,
	})
	return err
}

// flushAllNotifs flushes every target's pending batch; every
// synchronisation that publishes the sent counts calls it first.
func (w *Win) flushAllNotifs() error {
	for t := range w.pending {
		if err := w.flushNotifs(t); err != nil {
			return err
		}
	}
	return nil
}

// Free destroys this process's handle on the window (MPI_Win_free). It
// is collective; every epoch must be closed and every per-target lock
// released first. Further operations on the handle fail with ErrFreed.
func (w *Win) Free() error {
	if w.freed {
		return ErrFreed
	}
	if w.epochOpen {
		return errors.New("rma: MPI_Win_free with an open access epoch")
	}
	if w.pscwTargets != nil {
		return errors.New("rma: MPI_Win_free with an open PSCW access epoch (missing MPI_Win_complete)")
	}
	if w.pscwPosted != nil {
		return errors.New("rma: MPI_Win_free with an open PSCW exposure epoch (missing MPI_Win_wait)")
	}
	for target, mode := range w.lockMode {
		if mode != lockNone {
			return fmt.Errorf("rma: MPI_Win_free while rank %d is still locked", target)
		}
	}
	if err := w.flushAllNotifs(); err != nil {
		return err
	}
	if err := w.p.Barrier(); err != nil {
		return err
	}
	w.freed = true
	return nil
}

// LockAll opens a passive-target access epoch (MPI_Win_lock_all).
func (w *Win) LockAll() error {
	if w.freed {
		return ErrFreed
	}
	if w.epochOpen {
		return ErrEpochOpen
	}
	w.epoch++
	w.epochOpen = true
	w.epochStart = time.Now()
	if w.spOn {
		w.epochT0 = w.sp.Now()
	}
	w.p.open = append(w.p.open, w)
	return nil
}

// UnlockAll closes the epoch (MPI_Win_unlock_all): all ranks flush
// their pending notification batches, reduce the number of remote
// accesses issued towards each window, wait for their pending
// notifications, complete the epoch analysis and synchronise.
func (w *Win) UnlockAll() error {
	if !w.epochOpen {
		return ErrNoEpoch
	}
	rank := w.p.Rank()

	if err := w.flushAllNotifs(); err != nil {
		return err
	}
	counts, err := w.p.Allreduce(w.sent, mpi.OpSum)
	if err != nil {
		return err
	}
	w.expected += counts[rank]

	g := w.g
	if err := g.eng.WaitReceived(rank, w.expected); err != nil {
		return err
	}
	g.eng.EpochEnd(rank)

	if err := w.p.Barrier(); err != nil {
		return err
	}

	for i := range w.sent {
		w.sent[i] = 0
	}
	w.epochOpen = false
	w.p.s.recordEpoch(rank, time.Since(w.epochStart))
	if w.spOn {
		w.sp.Record(rank, span.Record{
			Kind:  span.KindEpoch,
			Start: w.epochT0, Dur: w.sp.Now() - w.epochT0,
			A: int64(w.epoch), B: int64(w.g.ranks),
		})
	}
	for i, o := range w.p.open {
		if o == w {
			w.p.open = append(w.p.open[:i], w.p.open[i+1:]...)
			break
		}
	}
	return nil
}

// rmaEvent builds the event for one side of a one-sided operation. RMA
// accesses are never alias-filtered: the MPI call itself is always
// intercepted.
func rmaEvent(b *Buffer, off, n int, tp access.Type, origin int, epoch, callTime uint64, dbg access.Debug) detector.Event {
	return detector.Event{
		Acc: access.Access{
			Interval: b.span(off, n),
			Type:     tp,
			Rank:     origin,
			Epoch:    epoch,
			Stack:    b.stack,
			Debug:    dbg,
			StackID:  b.p.s.stackID(),
		},
		Time:     callTime,
		CallTime: callTime,
	}
}

// Put writes n bytes of src at srcOff into target's window at targetOff
// (MPI_Put): an RMA_Read of the origin buffer and an RMA_Write of the
// target window region.
func (w *Win) Put(target, targetOff int, src *Buffer, srcOff, n int, dbg access.Debug) error {
	return w.onesided(target, targetOff, src, srcOff, n, dbg, true)
}

// Get reads n bytes from target's window at targetOff into dst at
// dstOff (MPI_Get): an RMA_Write of the origin buffer and an RMA_Read
// of the target window region.
func (w *Win) Get(dst *Buffer, dstOff, target, targetOff, n int, dbg access.Debug) error {
	return w.onesided(target, targetOff, dst, dstOff, n, dbg, false)
}

func (w *Win) onesided(target, targetOff int, local *Buffer, localOff, n int, dbg access.Debug, isPut bool) error {
	if target < 0 || target >= w.p.Size() {
		return fmt.Errorf("rma: one-sided operation to invalid rank %d", target)
	}
	if w.freed {
		return ErrFreed
	}
	if !w.epochOpen && !w.lockedFor(target) && !w.pscwTargets[target] {
		return ErrNoEpoch
	}
	g := w.g
	tgtMem := g.mems[target]
	callTime := w.p.tick()
	origin := w.p.Rank()
	clk := w.callClock(origin, callTime)
	var spanT0 int64
	if w.spOn {
		spanT0 = w.sp.Now()
	}

	localType, remoteType := access.RMAWrite, access.RMARead // Get
	if isPut {
		localType, remoteType = access.RMARead, access.RMAWrite
	}

	// Origin-side access, analysed locally.
	originEpoch := g.eng.Epoch(origin)
	evO := rmaEvent(local, localOff, n, localType, origin, originEpoch, callTime, dbg)
	evO.Clock = clk
	if err := w.analyse(origin, evO); err != nil {
		return err
	}

	// Data movement (the window memory itself).
	g.copyMu.Lock()
	if isPut {
		copy(tgtMem.data[targetOff:targetOff+n], local.data[localOff:localOff+n])
	} else {
		copy(local.data[localOff:localOff+n], tgtMem.data[targetOff:targetOff+n])
	}
	g.copyMu.Unlock()

	// Target-side access, notified to the target's receiver (the
	// paper's MPI_Send on the hidden communicator). The receiver stamps
	// the target's epoch.
	ev := rmaEvent(tgtMem, targetOff, n, remoteType, origin, 0, callTime, dbg)
	ev.Clock = clk
	err := w.notify(target, ev)
	if w.spOn {
		kind := span.KindGet
		if isPut {
			kind = span.KindPut
		}
		w.sp.Record(origin, span.Record{
			Kind:  kind,
			Start: spanT0, Dur: w.sp.Now() - spanT0,
			A: int64(target), B: int64(n),
		})
	}
	return err
}

// callClock captures the origin's MUST-RMA happens-before clock at the
// MPI call site, piggybacked on both halves of the one-sided operation
// (Event.Clock). Real MUST-RMA attaches the clock to the message —
// the O(P) cost §5.3 charges it with — and the simulation must do the
// same: snapshotting when the target's receiver processes the
// notification instead would make the happens-before verdict depend on
// how far concurrent epoch-closing joins had progressed, i.e. on
// scheduling. Under the adaptive representation the snapshot is a
// scalar vc.Epoch until the origin's history crosses ranks. Nil for
// the other methods.
func (w *Win) callClock(origin int, callTime uint64) vc.HB {
	if s := w.p.s; s.must != nil {
		return s.must.Snapshot(origin, callTime)
	}
	return nil
}

// countSent attributes an issued notification to the synchronisation
// mechanism that will drain it: the PSCW access epoch when one is open
// towards the target, otherwise the window's lock_all/lock accounting.
func (w *Win) countSent(target int) {
	if w.pscwTargets[target] {
		w.pscwSent[target]++
		return
	}
	w.sent[target]++
}

// Flush completes this rank's outstanding operations towards target
// (MPI_Win_flush): the pending notification batch is pushed out.
// Following §6(2) it does not clear any analysis state unless the
// session runs the unsafe ablation.
//
// MPI_Win_flush is legal within any passive-target epoch, so the call
// is accepted under a LockAll epoch, a per-target Lock(target), or an
// open PSCW access epoch towards target — the same set of states that
// permits a one-sided operation. A negative target flushes every
// pending batch (FlushAll); a target at or beyond the communicator
// size is a descriptive error instead of an index panic.
func (w *Win) Flush(target int) error {
	if w.freed {
		return ErrFreed
	}
	if target >= w.p.Size() {
		return fmt.Errorf("rma: flush of invalid rank %d (communicator size %d)", target, w.p.Size())
	}
	if target < 0 {
		if !w.epochOpen && !w.anyTargetEpoch() {
			return ErrNoEpoch
		}
		if err := w.flushAllNotifs(); err != nil {
			return err
		}
	} else {
		if !w.epochOpen && !w.lockedFor(target) && !w.pscwTargets[target] {
			return ErrNoEpoch
		}
		if err := w.flushNotifs(target); err != nil {
			return err
		}
	}
	rank := w.p.Rank()
	var spanT0 int64
	if w.spOn {
		spanT0 = w.sp.Now()
	}
	w.g.eng.Flush(rank)
	if w.spOn {
		w.sp.Record(rank, span.Record{
			Kind:  span.KindFlush,
			Start: spanT0, Dur: w.sp.Now() - spanT0,
			A: int64(target),
		})
	}
	return nil
}

// anyTargetEpoch reports whether any per-target synchronisation that
// permits one-sided operations is open: a held Lock or a PSCW access
// epoch towards at least one target.
func (w *Win) anyTargetEpoch() bool {
	for _, mode := range w.lockMode {
		if mode != lockNone {
			return true
		}
	}
	return len(w.pscwTargets) > 0
}

// FlushAll completes this rank's outstanding operations towards every
// target (MPI_Win_flush_all).
func (w *Win) FlushAll() error { return w.Flush(-1) }

// Close releases the session's receiver goroutines. Call it after the
// world has finished; it is not collective and safe to call more than
// once, even while notifications are still in flight. A WinCreate
// that comes after it fails with ErrSessionClosed.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	func() {
		defer func() { recover() }() // tolerate double close
		close(s.closed)
	}()
	for _, g := range s.wins {
		g.eng.Close()
		func() {
			defer func() { recover() }()
			close(g.lockCh) // stops the lock server
		}()
	}
	s.tel.Close() // nil-safe; stops the telemetry server with the run
}
