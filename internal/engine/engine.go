// Package engine is the per-window analysis engine: the state machine
// that owns the analyzers, serialises access to them, runs the
// receiver goroutines draining notification batches, and implements
// the count-and-drain quiescence protocol the synchronisation calls
// build on (the paper's "for each window, a thread is created to
// receive all the MPI_Send").
//
// The engine is deliberately independent of the MPI simulator: the
// instrumentation layer (package internal/rma) supplies a stop channel
// and a race callback, and the engine exposes exactly the operations
// the MPI-RMA synchronisation surface needs — Notify/SendSync to feed
// a rank's receiver, WaitReceived to drain it, EpochEnd/Epoch for the
// epoch lifecycle, Analyse for origin-side and local accesses. That
// makes the whole analysis pipeline unit-testable without spinning up
// a simulated world.
package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
)

// DefaultChannelCap is the per-rank notification channel capacity when
// Config.ChannelCap is zero.
const DefaultChannelCap = 1024

// ErrClosed is returned by sends after the engine has been closed.
var ErrClosed = errors.New("engine: closed")

// errStopped is returned on a stop without a StopErr callback.
var errStopped = errors.New("engine: stopped")

// Batch is one message on a rank's notification channel: a batch of
// remote accesses to analyse, or a synchronisation marker (Sync) that
// acknowledges once everything ahead of it has been processed and,
// with Release set, retires the origin's accesses first (an exclusive
// MPI_Win_unlock).
type Batch struct {
	Evs     []detector.Event
	Sync    bool
	Release bool
	Origin  int
	Ack     chan struct{}
	// Flow is the causal-edge id the origin's span tracer attached when
	// it sent the batch (0 when tracing is off); the receiver closes the
	// edge on its notif-batch span, binding the send to the analysis in
	// the exported timeline.
	Flow uint64
}

// Config assembles an Engine.
type Config struct {
	// Ranks is the number of per-rank analyzer/receiver pairs.
	Ranks int
	// NewAnalyzer builds the analyzer owned by the given rank.
	NewAnalyzer func(rank int) detector.Analyzer
	// ChannelCap bounds each rank's notification channel
	// (DefaultChannelCap when zero). A full channel never drops a
	// notification: the sender counts an overflow and blocks until the
	// receiver catches up.
	ChannelCap int
	// OnRace is called (possibly from a receiver goroutine) for every
	// race an analyzer reports. May be nil.
	OnRace func(*detector.Race)
	// Stop aborts the engine when closed: receivers exit, blocked
	// senders and waiters return StopErr. May be nil (never stops).
	Stop <-chan struct{}
	// StopErr reports why Stop fired. May be nil.
	StopErr func() error
	// Recorder receives the engine's metrics (received counts, overflow
	// backpressure, queue depths). Nil means disabled; the hot path then
	// pays one cached-bool branch per record site.
	Recorder obs.Recorder
	// Window names the window this engine serves; it is stamped into
	// the provenance of every race the engine surfaces.
	Window string
	// Spans receives the engine's causal spans (notification batches)
	// when non-nil; the instrumentation layer shares the same tracer for
	// its call-site spans so flows line up.
	Spans *span.Tracer
	// FlightN, when positive, keeps a per-rank flight recorder of the
	// last FlightN analysed accesses and synchronisations; a detected
	// race carries the owner's snapshot (Race.FlightLog).
	FlightN int
}

// Engine is the analysis state machine of one window across all ranks.
type Engine struct {
	cfg       Config
	analyzers []detector.Analyzer
	// anMu serialises each rank's analyzer between its receiver and the
	// rank's own origin-side/local analysis calls.
	anMu    []sync.Mutex
	notifCh []chan Batch
	// received counts processed notifications per rank (events and sync
	// markers alike), guarded by recvMu; recvCond broadcasts on every
	// update and on stop.
	recvMu   []sync.Mutex
	received []int64
	recvCond []*sync.Cond
	// epochs counts each rank's completed analysis epochs (atomic).
	// Receivers stamp every event with the owner's current count, so
	// all accesses analysed between two EpochEnd calls share an epoch
	// number even when they arrive before the owner's own LockAll.
	epochs []uint64
	// overflows counts, per rank, sends that found the notification
	// channel full and had to block (atomic). Nothing is dropped; the
	// counter makes the backpressure visible in the stats.
	overflows []int64

	// rec is the metrics sink (never nil: obs.Disabled when the config
	// leaves it unset); recOn caches rec.Enabled() so disabled record
	// sites cost one branch.
	rec   obs.Recorder
	recOn bool
	// spans/spanOn follow the same discipline for the span tracer, and
	// flight holds the per-rank flight recorders (all nil when
	// Config.FlightN is zero — the nil *FlightLog is inert).
	spans  *span.Tracer
	spanOn bool
	flight []*detector.FlightLog

	closed    chan struct{}
	closeOnce sync.Once
}

// New builds an engine and starts each rank's receiver.
func New(cfg Config) *Engine {
	if cfg.ChannelCap <= 0 {
		cfg.ChannelCap = DefaultChannelCap
	}
	e := &Engine{
		cfg:       cfg,
		analyzers: make([]detector.Analyzer, cfg.Ranks),
		anMu:      make([]sync.Mutex, cfg.Ranks),
		notifCh:   make([]chan Batch, cfg.Ranks),
		recvMu:    make([]sync.Mutex, cfg.Ranks),
		received:  make([]int64, cfg.Ranks),
		recvCond:  make([]*sync.Cond, cfg.Ranks),
		epochs:    make([]uint64, cfg.Ranks),
		overflows: make([]int64, cfg.Ranks),
		closed:    make(chan struct{}),
		rec:       obs.OrDisabled(cfg.Recorder),
		spans:     cfg.Spans,
		flight:    make([]*detector.FlightLog, cfg.Ranks),
	}
	e.recOn = e.rec.Enabled()
	e.spanOn = e.spans.Enabled()
	for r := 0; r < cfg.Ranks; r++ {
		if cfg.FlightN > 0 {
			e.flight[r] = detector.NewFlightLog(cfg.FlightN)
		}
		e.analyzers[r] = cfg.NewAnalyzer(r)
		e.notifCh[r] = make(chan Batch, cfg.ChannelCap)
		e.recvCond[r] = sync.NewCond(&e.recvMu[r])
		go e.receive(r)
	}
	// Wake every count-waiter when the engine stops; exit when it
	// closes so finished runs can be collected.
	go func() {
		select {
		case <-e.cfg.Stop:
		case <-e.closed:
			return
		}
		e.wakeAll()
	}()
	return e
}

// receive drains rank's notification channel until the engine stops or
// closes.
func (e *Engine) receive(rank int) {
	for {
		select {
		case b := <-e.notifCh[rank]:
			e.process(rank, b)
		case <-e.cfg.Stop:
			return
		case <-e.closed:
			return
		}
	}
}

// process handles one batch: sync markers acknowledge (releasing the
// origin first when asked, and counted as received before the ack);
// event batches are stamped with the owner's epoch and fed to the
// analyzer in one serialised call.
func (e *Engine) process(rank int, b Batch) {
	if b.Sync {
		if b.Release {
			e.anMu[rank].Lock()
			e.analyzers[rank].Release(b.Origin)
			e.anMu[rank].Unlock()
			e.flight[rank].Mark(detector.FlightRelease, b.Origin)
		} else {
			e.flight[rank].Mark(detector.FlightSync, b.Origin)
		}
		e.addReceived(rank, 1)
		if b.Ack != nil {
			close(b.Ack)
		}
		return
	}
	epoch := atomic.LoadUint64(&e.epochs[rank])
	for i := range b.Evs {
		b.Evs[i].Acc.Epoch = epoch
	}
	if e.flight[rank] != nil {
		for i := range b.Evs {
			e.flight[rank].Access(b.Evs[i].Acc)
		}
	}
	var spanStart int64
	if e.spanOn {
		spanStart = e.spans.Now()
	}
	e.anMu[rank].Lock()
	race := detector.AccessBatch(e.analyzers[rank], b.Evs)
	e.anMu[rank].Unlock()
	if e.spanOn {
		e.recordBatchSpan(rank, spanStart, int64(len(b.Evs)), int64(epoch), b.Flow)
	}
	if race != nil {
		e.raceFound(rank, race)
	}
	n := int64(len(b.Evs))
	putEventBuf(b.Evs)
	e.addReceived(rank, n)
}

// recordBatchSpan emits the engine-side notif-batch span, closing the
// batch's causal flow when the origin opened one.
func (e *Engine) recordBatchSpan(rank int, start, events, epoch int64, flow uint64) {
	rec := span.Record{
		Kind: span.KindNotifBatch, Tid: span.TidEngine,
		Start: start, Dur: e.spans.Now() - start,
		A: events, B: epoch,
	}
	if flow != 0 {
		rec.Flow, rec.Phase = flow, span.FlowFinish
	}
	e.spans.Record(rank, rec)
}

// raceFound stamps the engine's share of the race provenance — the
// owning rank and the window name — then counts it and hands it to the
// race callback.
func (e *Engine) raceFound(rank int, race *detector.Race) {
	p := race.EnsureProv()
	p.Owner = rank
	if p.Window == "" {
		p.Window = e.cfg.Window
	}
	if race.FlightLog == nil {
		race.FlightLog = e.flight[rank].Snapshot()
	}
	if e.recOn {
		e.rec.Add(obs.Races, rank, 1)
	}
	if e.cfg.OnRace != nil {
		e.cfg.OnRace(race)
	}
}

func (e *Engine) addReceived(rank int, n int64) {
	e.recvMu[rank].Lock()
	e.received[rank] += n
	e.recvCond[rank].Broadcast()
	e.recvMu[rank].Unlock()
	if e.recOn {
		e.rec.Add(obs.EngineReceived, rank, n)
	}
}

// Notify enqueues a batch of remote accesses for rank's receiver. The
// batch is handed off: the caller must not reuse the slice. When the
// channel is full the overflow counter is bumped and the send blocks
// (backpressure) until the receiver drains, the engine stops, or it
// closes — a notification is never silently dropped. flow is the
// origin's causal-flow id, so the receiver's notif-batch span closes
// the edge the origin's notif-send span opened; 0 means no tracing.
func (e *Engine) Notify(rank int, evs []detector.Event, flow uint64) error {
	if len(evs) == 0 {
		return nil
	}
	if e.recOn {
		e.rec.Observe(obs.NotifBatchLen, rank, int64(len(evs)))
	}
	return e.send(rank, Batch{Evs: evs, Flow: flow})
}

// SendSync enqueues a synchronisation marker behind everything already
// sent to rank. ack is closed once the marker is processed; release
// additionally retires origin's stored accesses first.
func (e *Engine) SendSync(rank, origin int, release bool, ack chan struct{}) error {
	return e.send(rank, Batch{Sync: true, Release: release, Origin: origin, Ack: ack})
}

func (e *Engine) send(rank int, b Batch) error {
	select {
	case e.notifCh[rank] <- b:
		if e.recOn {
			e.rec.SetMax(obs.EngineQueueDepth, rank, int64(len(e.notifCh[rank])))
		}
		return nil
	default:
	}
	atomic.AddInt64(&e.overflows[rank], 1)
	if e.recOn {
		e.rec.Add(obs.EngineOverflows, rank, 1)
		e.rec.SetMax(obs.EngineQueueDepth, rank, int64(cap(e.notifCh[rank])))
		start := time.Now()
		defer func() { e.rec.Add(obs.EngineBlockNanos, rank, int64(time.Since(start))) }()
	}
	select {
	case e.notifCh[rank] <- b:
		return nil
	case <-e.cfg.Stop:
		return e.stopErr()
	case <-e.closed:
		return ErrClosed
	}
}

func (e *Engine) stopErr() error {
	if e.cfg.StopErr != nil {
		if err := e.cfg.StopErr(); err != nil {
			return err
		}
	}
	return errStopped
}

// stopped reports whether the engine's stop channel has fired.
func (e *Engine) stoppedErr() error {
	select {
	case <-e.cfg.Stop:
		return e.stopErr()
	default:
		return nil
	}
}

// WaitReceived blocks until rank has processed at least expected
// notifications (counting events and sync markers), or the engine
// stops or closes, in which case the corresponding error is returned.
func (e *Engine) WaitReceived(rank int, expected int64) error {
	e.recvMu[rank].Lock()
	for e.received[rank] < expected && e.stoppedErr() == nil && !e.isClosed() {
		e.recvCond[rank].Wait()
	}
	satisfied := e.received[rank] >= expected
	e.recvMu[rank].Unlock()
	if err := e.stoppedErr(); err != nil {
		return err
	}
	if !satisfied {
		return ErrClosed
	}
	return nil
}

func (e *Engine) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// Received returns how many notifications rank has processed.
func (e *Engine) Received(rank int) int64 {
	e.recvMu[rank].Lock()
	defer e.recvMu[rank].Unlock()
	return e.received[rank]
}

// wakeAll broadcasts every rank's receive condition, releasing
// WaitReceived callers so they can observe a stop.
func (e *Engine) wakeAll() {
	for r := range e.recvCond {
		e.recvMu[r].Lock()
		e.recvCond[r].Broadcast()
		e.recvMu[r].Unlock()
	}
}

// Analyse feeds one access (origin-side or local) through rank's
// analyzer under the serialisation lock and reports any race through
// the callback as well as the return value.
func (e *Engine) Analyse(rank int, ev detector.Event) *detector.Race {
	e.flight[rank].Access(ev.Acc)
	e.anMu[rank].Lock()
	race := e.analyzers[rank].Access(ev)
	e.anMu[rank].Unlock()
	if race != nil {
		e.raceFound(rank, race)
	}
	return race
}

// EpochEnd completes rank's analysis epoch: the analyzer retires its
// state and the epoch counter future accesses are stamped with moves
// on. Callers drain first (WaitReceived).
func (e *Engine) EpochEnd(rank int) {
	e.flight[rank].Mark(detector.FlightEpochEnd, rank)
	e.anMu[rank].Lock()
	e.analyzers[rank].EpochEnd()
	atomic.AddUint64(&e.epochs[rank], 1)
	e.anMu[rank].Unlock()
}

// Epoch returns rank's completed-epoch count, the number stamped onto
// accesses analysed now.
func (e *Engine) Epoch(rank int) uint64 { return atomic.LoadUint64(&e.epochs[rank]) }

// Flush observes an MPI_Win_flush by rank.
func (e *Engine) Flush(rank int) {
	e.flight[rank].Mark(detector.FlightFlush, rank)
	e.anMu[rank].Lock()
	e.analyzers[rank].Flush(rank)
	e.anMu[rank].Unlock()
}

// WithAnalyzer runs fn with rank's analyzer under the serialisation
// lock, for statistics snapshots.
func (e *Engine) WithAnalyzer(rank int, fn func(detector.Analyzer)) {
	e.anMu[rank].Lock()
	fn(e.analyzers[rank])
	e.anMu[rank].Unlock()
}

// Overflows returns how many sends found rank's channel full and had
// to block.
func (e *Engine) Overflows(rank int) int64 { return atomic.LoadInt64(&e.overflows[rank]) }

// TotalOverflows sums Overflows over all ranks.
func (e *Engine) TotalOverflows() int64 {
	var total int64
	for r := range e.overflows {
		total += atomic.LoadInt64(&e.overflows[r])
	}
	return total
}

// Close shuts the engine down: receivers exit, blocked senders return
// ErrClosed, waiters wake. Safe to call more than once and safe
// against concurrent in-flight sends (no channel is ever closed).
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.closed) })
	e.wakeAll()
}

// freeBufs is the process-wide free list of notification batch slices.
// Every engine's senders draw from it (GetEventBuf) and every engine's
// receivers return to it after analysis (putEventBuf), so the engines a
// new live session builds reuse the slices of finished ones. It is a
// stack: the slice handed out is the one returned last, still warm in
// cache. It holds nothing until the first batch comes back.
var freeBufs struct {
	mu   sync.Mutex
	bufs [][]detector.Event
}

// maxFreeBufs bounds the free list at one engine's worth of batches: a
// rank's DefaultChannelCap queued batches plus the few being filled or
// analysed. Slices returned beyond it go to the GC.
const maxFreeBufs = DefaultChannelCap + 64

// eventBufCap sizes a fresh batch slice to one full batch at the
// instrumentation layer's default batch size (rma.DefaultNotifBatch).
const eventBufCap = 64

// GetEventBuf takes a batch slice (length 0) from the process-wide free
// list, or makes one when the list is empty, for callers assembling a
// Notify batch. The receiver returns the slice to the list once the
// batch is analysed, so the steady-state pipeline allocates nothing.
func GetEventBuf() []detector.Event {
	freeBufs.mu.Lock()
	if n := len(freeBufs.bufs); n > 0 {
		evs := freeBufs.bufs[n-1]
		freeBufs.bufs[n-1] = nil
		freeBufs.bufs = freeBufs.bufs[:n-1]
		freeBufs.mu.Unlock()
		return evs
	}
	freeBufs.mu.Unlock()
	return make([]detector.Event, 0, eventBufCap)
}

// putEventBuf clears an analysed batch and returns its slice to the
// free list, so a pooled slice keeps no finished session's clocks or
// debug strings alive. Clearing the batch's length suffices for the
// slices GetEventBuf hands out: their tail past the length is zero, from
// make, from append's growth or from the previous clear. A slice too
// small for one default batch, such as a caller's literal, is left to
// the GC, so every pooled slice holds a batch without growing.
func putEventBuf(evs []detector.Event) {
	if cap(evs) < eventBufCap {
		return
	}
	clear(evs)
	freeBufs.mu.Lock()
	if len(freeBufs.bufs) < maxFreeBufs {
		freeBufs.bufs = append(freeBufs.bufs, evs[:0])
	}
	freeBufs.mu.Unlock()
}
