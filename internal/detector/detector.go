// Package detector defines the on-the-fly data-race analyzers compared
// in the paper and the event stream they consume.
//
// Four analyzers implement the Analyzer interface:
//
//   - core.Analyzer (package internal/core) — the paper's contribution:
//     the interval BST with the fragmentation/merging insertion
//     algorithm (Algorithm 1).
//   - Legacy — RMA-Analyzer as published at EuroMPI'21, with its
//     lower-bound search, one-node-per-access storage and
//     order-insensitive race check.
//   - MustRMA — a MUST-RMA simulator: vector-clock happens-before plus
//     ThreadSanitizer-style shadow memory, instrumenting every access
//     (no alias filtering) but blind to stack arrays.
//   - Baseline — no analysis; measures the uninstrumented run.
//
// Analyzers are created per (process, window) by the instrumentation
// layer (package internal/rma); they are not safe for concurrent use and
// are serialised by their owner.
package detector

import (
	"fmt"
	"strings"

	"rmarace/internal/access"
	"rmarace/internal/interval"
	"rmarace/internal/vc"
)

// Event is one instrumented access as observed by the PMPI layer.
type Event struct {
	Acc access.Access
	// Time is the issuing rank's program-order counter at the access.
	Time uint64
	// CallTime is, for the two halves of a one-sided operation, the
	// issuing rank's counter at the MPI call site. Zero for local
	// accesses.
	CallTime uint64
	// Clock is the issuing rank's happens-before clock captured at the
	// MPI call site, piggybacked on the event the way real MUST-RMA
	// attaches clocks to messages (§5.3). The representation is adaptive
	// (vc.Epoch before the first cross-rank join, a base-sharing clock
	// after — see vc.HB); only the MUST-RMA analyzer reads it. Without
	// it the analyzer falls back to snapshotting at
	// notification-processing time, whose result depends on how far the
	// target's receiver has drained — i.e. on scheduling.
	Clock vc.HB
	// Filtered marks accesses the compile-time alias analysis proved
	// irrelevant to any RMA region. RMA-Analyzer and the contribution
	// skip them; MUST-RMA's ThreadSanitizer instruments them anyway
	// (§5.3), which is part of its overhead.
	Filtered bool
}

// Race is a detected data race. It reproduces the report of Fig. 9:
// the access being inserted, the conflicting stored access, and their
// debug information — plus, beyond the paper, structured provenance
// (Prov) identifying where in the pipeline the conflict surfaced.
type Race struct {
	Prev, Cur access.Access
	// Prov carries the race's provenance. It is filled in by the layers
	// that know each fact — the sharded analyzer stamps the shard, the
	// engine the owning rank and window — and may be nil for races
	// produced by a bare analyzer outside any pipeline.
	Prov *Provenance
	// FlightLog is the owning analyzer's flight-recorder snapshot at the
	// moment of detection — the last N accesses and synchronisations
	// that led up to the verdict, oldest first. Nil unless the run
	// enabled the flight recorder.
	FlightLog []FlightEntry
}

// Provenance locates a race within the analysis pipeline: which
// window's analyzer held the conflicting access, which rank owns that
// analyzer, and which address-space shard the overlap fell in.
type Provenance struct {
	// Window is the window name, when known.
	Window string
	// Owner is the rank whose per-window analyzer detected the race
	// (the exposed region's owner, not necessarily either issuer).
	Owner int
	// Shard is the address-space shard holding the conflict, or -1 for
	// an unsharded analyzer.
	Shard int
}

// EnsureProv returns the race's provenance, attaching a fresh one
// (Shard -1) first when none is set. Callers fill in only the fields
// they know; already-set values are preserved across layers.
func (r *Race) EnsureProv() *Provenance {
	if r.Prov == nil {
		r.Prov = &Provenance{Shard: -1}
	}
	return r.Prov
}

// Message formats the race exactly like the paper's Fig. 9 output.
// Provenance never appears here: the line stays byte-identical to the
// original tool's report.
func (r *Race) Message() string {
	return fmt.Sprintf(
		"Error when inserting memory access of type %s from file %s with already inserted interval of type %s from file %s. The program will be exiting now with MPI_Abort.",
		strings.ToUpper(r.Cur.Type.String()), r.Cur.Debug,
		strings.ToUpper(r.Prev.Type.String()), r.Prev.Debug)
}

// Detail renders the extended report: the Fig. 9 line first, then the
// structured provenance of both accesses (ranks, epochs, intervals,
// window, shard, captured stacks).
func (r *Race) Detail() string {
	var b strings.Builder
	b.WriteString(r.Message())
	if p := r.Prov; p != nil {
		fmt.Fprintf(&b, "\n  window=%s owner=%d shard=%d", p.Window, p.Owner, p.Shard)
	}
	writeSide := func(side string, a access.Access) {
		fmt.Fprintf(&b, "\n  %s: %s [%d..%d] rank=%d epoch=%d at %s", side, a.Type, a.Lo, a.Hi, a.Rank, a.Epoch, a.Debug)
		if st := a.FrameString(); st != "" {
			fmt.Fprintf(&b, "\n    stack: %s", st)
		}
	}
	writeSide("stored", r.Prev)
	writeSide("inserted", r.Cur)
	return b.String()
}

// Error implements the error interface so a Race can abort a simulated
// program the way MPI_Abort does.
func (r *Race) Error() string { return r.Message() }

// Analyzer is the per-(process, window) analysis state of one method.
type Analyzer interface {
	// Name identifies the method ("our-contribution", "rma-analyzer",
	// "must-rma", "baseline").
	Name() string
	// Access processes one instrumented access and returns a race if
	// the access conflicts with a stored one. After a non-nil return
	// the analyzer state is unspecified; the program is aborted.
	Access(ev Event) *Race
	// EpochEnd completes the window's passive-target epoch
	// (MPI_Win_unlock_all): all accesses of the epoch become ordered
	// with the future and the store is reset.
	EpochEnd()
	// Flush observes an MPI_Win_flush by the given rank. Following §6
	// of the paper every analyzer treats it as a no-op by default
	// (clearing on flush causes false negatives); the contribution
	// exposes an opt-in unsafe mode as an ablation.
	Flush(rank int)
	// Release observes an exclusive MPI_Win_unlock by rank at this
	// window. The per-target lock grants in FIFO order, so every lock
	// session that completed before the unlock — the releasing rank's
	// own and every earlier holder's, shared included — is ordered
	// before every later holder's session: the stored remote one-sided
	// accesses are retired. The window owner's own accesses (origin
	// buffers, unsynchronised local loads/stores) are never
	// lock-ordered and stay live. Sound when every remote access to
	// the window happens under the window lock discipline.
	Release(rank int)
	// Nodes reports the current number of stored entries — BST nodes
	// for the tree-based analyzers (Table 4), shadow cells for
	// MUST-RMA, zero for the baseline.
	Nodes() int
	// MaxNodes reports the high-water mark of Nodes over the run.
	MaxNodes() int
	// Accesses reports how many (unfiltered, for tree analyzers)
	// accesses were processed.
	Accesses() uint64
}

// BatchAnalyzer is the optional batch-processing capability of the
// notification pipeline: AccessBatch must be equivalent to calling
// Access on each event in order, returning the first race. The
// contribution implements it as exactly that loop, so its
// adjacent-merge fast path runs the same per event and per batch.
type BatchAnalyzer interface {
	AccessBatch(evs []Event) *Race
}

// AccessBatch feeds a batch of events to a through its BatchAnalyzer
// capability when present, falling back to one Access call per event.
// It returns the first detected race, or nil.
func AccessBatch(a Analyzer, evs []Event) *Race {
	if b, ok := a.(BatchAnalyzer); ok {
		return b.AccessBatch(evs)
	}
	for i := range evs {
		if r := a.Access(evs[i]); r != nil {
			return r
		}
	}
	return nil
}

// Compacter is the optional memory-compaction capability of an
// analyzer: Compact releases retained capacity that exists only to
// amortise allocation — store node free lists, scratch buffers — without
// touching live analysis state, so it is always verdict-preserving. The
// bounded-memory trace replay calls it at epoch boundaries to keep peak
// RSS flat across many-owner streams.
type Compacter interface {
	Compact()
}

// Compact invokes a's Compacter capability when present; analyzers
// without one retain their capacity (a no-op, like AccessBatch's
// fallback is the scalar path).
func Compact(a Analyzer) {
	if c, ok := a.(Compacter); ok {
		c.Compact()
	}
}

// RequestCompleter is the optional request-completion capability of an
// analyzer: CompleteRequest observes the local completion (MPI_Wait /
// MPI_Waitall) of a request-based one-sided operation issued by rank
// whose origin buffer is iv. Completion orders the request's
// origin-side accesses before everything after the wait on the issuing
// rank, so their stored one-sided fragments inside iv are retired at
// this analyzer. Local completion says nothing about the target side:
// target-window accesses stay live until the epoch's closing
// synchronisation, which is why a completed Rput still races with a
// concurrent access at the target. Analyzers without the capability
// keep the accesses stored — sound (extra pairs are at worst false
// positives on buffer reuse), just less precise.
type RequestCompleter interface {
	CompleteRequest(rank int, iv interval.Interval)
}

// CompleteRequest invokes a's RequestCompleter capability when
// present; analyzers without one keep the request's accesses stored (a
// no-op, like AccessBatch's fallback is the scalar path).
func CompleteRequest(a Analyzer, rank int, iv interval.Interval) {
	if c, ok := a.(RequestCompleter); ok {
		c.CompleteRequest(rank, iv)
	}
}

// Sharder is the optional sharding capability of an analyzer: the
// address space is partitioned into NumShards contiguous interval
// shards, each an independent Analyzer, and RouteEach splits an event
// at shard boundaries. Splitting is verdict-preserving because the race
// predicate is evaluated per overlap and every overlap lies wholly
// inside one shard (see package internal/shard). Nothing drives the
// shards concurrently: the sharded analyzer routes serially, and the
// capability lets a decorator recognise one (perfbench's timing
// wrapper refuses to hide it).
type Sharder interface {
	Analyzer
	// NumShards returns the shard count (≥ 1).
	NumShards() int
	// ShardAnalyzer returns shard i's independent analyzer. Callers are
	// responsible for serialising access to it.
	ShardAnalyzer(i int) Analyzer
	// RouteEach splits ev at shard boundaries and calls emit once per
	// piece, in ascending address order, with the owning shard.
	RouteEach(ev Event, emit func(shard int, piece Event))
}

// Method enumerates the four compared approaches, in the order the
// paper's figures present them.
type Method int

const (
	Baseline Method = iota
	RMAAnalyzer
	MustRMAMethod
	OurContribution
)

// String returns the method label used in the paper's figures.
func (m Method) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case RMAAnalyzer:
		return "RMA-Analyzer"
	case MustRMAMethod:
		return "MUST-RMA"
	case OurContribution:
		return "Our Contribution"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all four methods in presentation order.
func Methods() []Method {
	return []Method{Baseline, RMAAnalyzer, MustRMAMethod, OurContribution}
}

// MethodByName resolves the CLI/API spelling of a method ("baseline",
// "rma-analyzer", "must-rma", "our-contribution").
func MethodByName(name string) (Method, error) {
	switch name {
	case "baseline":
		return Baseline, nil
	case "rma-analyzer":
		return RMAAnalyzer, nil
	case "must-rma":
		return MustRMAMethod, nil
	case "our-contribution":
		return OurContribution, nil
	}
	return 0, fmt.Errorf("unknown method %q", name)
}
