// Package span is the causal-tracing half of the observability layer:
// lightweight spans recording what each rank of a run was doing when —
// epochs opening and closing, one-sided operations, flushes,
// notification batches draining through the engine — plus cross-rank
// causal edges linking a notification batch's send site to its
// analysis on the target.
//
// The design follows the same discipline as the metrics registry
// (package internal/obs): recording is off by default and call sites
// branch on a cached enabled bool, so an untraced run pays one
// predictable branch per site and zero allocations. When tracing is on,
// each span is one fixed-size numeric record written into the issuing
// rank's lock-free ring buffer — one atomic fetch-add to claim a slot,
// plain stores to fill it, one atomic store to publish. Rings are
// bounded: a run longer than the ring keeps the most recent spans,
// which is the flight-recorder behaviour a long 256-rank run wants.
// A slot being overwritten while an exporter reads it can yield a torn
// record; the publication sequence lets the exporter detect and drop
// such slots, and in practice export happens after the run is
// quiescent.
//
// Export renders the rings as Chrome trace-event JSON (the array
// format), which Perfetto and chrome://tracing load directly: ranks
// become processes, spans become "X" complete events, and causal edges
// become "s"/"f" flow events binding the origin's send to the target's
// batch-analysis slice.
package span

import (
	"sync/atomic"
	"time"
)

// Kind classifies a span record. The export layer derives the slice
// name and track from it, keeping records free of strings.
type Kind uint8

const (
	// KindEpoch is one passive-target (or PSCW/fence) epoch of a rank:
	// A carries the epoch number, B the number of targets.
	KindEpoch Kind = iota
	// KindPut is one MPI_Put: A the target rank, B the byte count.
	KindPut
	// KindGet is one MPI_Get: A the target rank, B the byte count.
	KindGet
	// KindAccum is one MPI_Accumulate/MPI_Fetch_and_op: A the target
	// rank, B the byte count.
	KindAccum
	// KindFlush is one MPI_Win_flush: A the target rank (-1 for all).
	KindFlush
	// KindLocal is one instrumented local load/store (replay export
	// only): A the low address, B the byte count.
	KindLocal
	// KindNotifSend marks a notification batch leaving the origin: A the
	// target rank, B the batch length. It opens the batch's causal flow.
	KindNotifSend
	// KindNotifBatch is the engine analysing one notification batch on
	// the owner: A the batch length, B the epoch it was stamped with. It
	// closes the batch's causal flow.
	KindNotifBatch

	numKinds
)

// String returns the exported slice name of the kind.
func (k Kind) String() string {
	switch k {
	case KindEpoch:
		return "epoch"
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindAccum:
		return "accumulate"
	case KindFlush:
		return "flush"
	case KindLocal:
		return "local"
	case KindNotifSend:
		return "notif-send"
	case KindNotifBatch:
		return "notif-batch"
	}
	return "span"
}

// FlowPhase says what a record's Flow id means.
type FlowPhase uint8

const (
	// FlowNone carries no causal edge.
	FlowNone FlowPhase = iota
	// FlowStart opens causal flow Flow at this span (the send site).
	FlowStart
	// FlowFinish closes causal flow Flow at this span (the receipt).
	FlowFinish
)

// Record is one span: a fixed-size, string-free description of one
// thing one rank did. Start and Dur are nanoseconds on the tracer's
// clock (wall time for live runs, logical time for replays).
type Record struct {
	Start int64
	Dur   int64
	// Flow is the causal-edge id this record participates in (0 none);
	// Phase says whether it opens or closes the edge.
	Flow  uint64
	A, B  int64
	Kind  Kind
	Phase FlowPhase
	// Tid is the track within the rank's process row: TidApp for the
	// rank's own goroutine, TidEngine for its receiver/router.
	Tid uint8
}

// Track ids within one rank's process row.
const (
	// TidApp is the rank's application goroutine (MPI calls, epochs).
	TidApp = 0
	// TidEngine is the rank's engine side (its notification receiver).
	TidEngine = 1
)

// slot is one published ring entry. seq is 0 while empty or being
// written, sequence+1 once the fields are valid. Fields are atomic
// words (not a plain Record) so writers overwriting a wrapped slot and
// readers snapshotting a live ring never constitute a data race under
// the Go memory model; the sequence check drops records torn by a
// concurrent overwrite.
type slot struct {
	seq                       atomic.Uint64
	start, dur, flow, a, b, t atomic.Int64
}

func (s *slot) store(rec Record) {
	s.start.Store(rec.Start)
	s.dur.Store(rec.Dur)
	s.flow.Store(int64(rec.Flow))
	s.a.Store(rec.A)
	s.b.Store(rec.B)
	s.t.Store(int64(rec.Kind) | int64(rec.Phase)<<8 | int64(rec.Tid)<<16)
}

func (s *slot) load() Record {
	t := s.t.Load()
	return Record{
		Start: s.start.Load(),
		Dur:   s.dur.Load(),
		Flow:  uint64(s.flow.Load()),
		A:     s.a.Load(),
		B:     s.b.Load(),
		Kind:  Kind(t & 0xff),
		Phase: FlowPhase(t >> 8 & 0xff),
		Tid:   uint8(t >> 16 & 0xff),
	}
}

// ring is one rank's bounded span buffer.
type ring struct {
	mask uint64
	cur  atomic.Uint64
	slot []slot
}

func (r *ring) put(rec Record) {
	seq := r.cur.Add(1) - 1
	s := &r.slot[seq&r.mask]
	s.seq.Store(0) // invalidate for readers while the record is torn
	s.store(rec)
	s.seq.Store(seq + 1)
}

// DefaultDepth is the per-rank ring capacity when NewTracer is given a
// non-positive depth: the most recent 16Ki spans per rank survive.
const DefaultDepth = 1 << 14

// Tracer owns the per-rank rings of one run. A nil *Tracer is the
// disabled tracer: Enabled reports false and call sites skip their
// instrumentation, so the zero-configuration path records nothing and
// allocates nothing.
type Tracer struct {
	rings []ring
	flow  atomic.Uint64
	t0    time.Time
	// logical marks a tracer fed with logical (replay) timestamps via
	// RecordAt; Now must not be mixed in.
	logical bool
}

// NewTracer builds a tracer for ranks ranks with the given per-rank
// ring depth (rounded up to a power of two; DefaultDepth when <= 0).
func NewTracer(ranks, depth int) *Tracer {
	if ranks <= 0 {
		ranks = 1
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	n := 1
	for n < depth {
		n <<= 1
	}
	t := &Tracer{rings: make([]ring, ranks), t0: time.Now()}
	for i := range t.rings {
		t.rings[i].mask = uint64(n - 1)
		t.rings[i].slot = make([]slot, n)
	}
	return t
}

// NewLogicalTracer builds a tracer for replayed runs whose records
// carry logical timestamps (the trace's program-order counters).
func NewLogicalTracer(ranks, depth int) *Tracer {
	t := NewTracer(ranks, depth)
	t.logical = true
	return t
}

// Enabled reports whether the tracer records anything; call sites cache
// it so a nil tracer costs one branch per site.
func (t *Tracer) Enabled() bool { return t != nil }

// Ranks returns the number of per-rank rings.
func (t *Tracer) Ranks() int { return len(t.rings) }

// Now returns the tracer-clock timestamp in nanoseconds since start.
func (t *Tracer) Now() int64 { return int64(time.Since(t.t0)) }

// NextFlow allocates a fresh causal-edge id (never 0).
func (t *Tracer) NextFlow() uint64 { return t.flow.Add(1) }

// Record appends rec to rank's ring. Safe for concurrent use from any
// goroutine; out-of-range ranks are clamped to ring 0 rather than
// dropped, so a mislabelled span still shows up somewhere visible.
func (t *Tracer) Record(rank int, rec Record) {
	if t == nil {
		return
	}
	if rank < 0 || rank >= len(t.rings) {
		rank = 0
	}
	t.rings[rank].put(rec)
}

// taggedRecord pairs a record with its rank and publication sequence
// for export ordering.
type taggedRecord struct {
	rec  Record
	rank int
	seq  uint64
}

// snapshot collects every valid record across the rings. Slots whose
// sequence moved while being read are dropped (torn by a concurrent
// overwrite).
func (t *Tracer) snapshot() []taggedRecord {
	if t == nil {
		return nil
	}
	var out []taggedRecord
	for rank := range t.rings {
		r := &t.rings[rank]
		for i := range r.slot {
			s := &r.slot[i]
			seq := s.seq.Load()
			if seq == 0 {
				continue
			}
			rec := s.load()
			if s.seq.Load() != seq {
				continue // overwritten mid-read
			}
			out = append(out, taggedRecord{rec: rec, rank: rank, seq: seq})
		}
	}
	return out
}

// Len reports how many records are currently held across all rings
// (recent spans only; older ones may have been overwritten).
func (t *Tracer) Len() int { return len(t.snapshot()) }
