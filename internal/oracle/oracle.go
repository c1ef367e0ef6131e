// Package oracle is the deliberately naive reference race detector the
// differential fuzzer measures every production configuration against.
//
// It is the brute-force spelling of the paper's semantics with none of
// the paper's machinery: one flat per-(owner, window) access list —
// segregated into epochs by EpochEnd, exactly the "memory accesses that
// are contained within each epoch" scope of §2.2 — and an O(n) pairwise
// scan of access.Races on every insertion. No BST, no fragmentation, no
// merging, no batching, no sharding: nothing the contribution adds is
// in the trusted base, so any verdict divergence between the oracle and
// a production configuration implicates the production machinery (or,
// symmetrically, this spelling of the spec — either way a bug worth a
// minimised reproducer).
//
// Unlike the production analyzers, which abort at the first race like
// MPI_Abort does, the oracle records every racing pair and keeps going.
// Its result is the complete verdict set keyed by detector.RaceKey, so
// a subject that stops at its first race can be checked with "did the
// subject race iff the oracle found anything, and is the subject's pair
// in the oracle's set" — which is robust against the subject visiting
// pairs in a different (schedule-, batch- or shard-dependent) order.
package oracle

import (
	"fmt"
	"io"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/trace"
)

// Oracle is the reference detector for one window across all owners.
// It is not safe for concurrent use.
type Oracle struct {
	stored map[int][]access.Access // per owner, current epoch only
	races  map[detector.RaceKey]detector.Race
	order  []detector.RaceKey
	events int
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{
		stored: make(map[int][]access.Access),
		races:  make(map[detector.RaceKey]detector.Race),
	}
}

// Access records one access at owner's analyzer, first checking it
// pairwise against every access stored there. All races are collected;
// the access is stored regardless (the program under test is assumed to
// keep running, which is what lets one run yield the full verdict set).
func (o *Oracle) Access(owner int, a access.Access) {
	o.events++
	for _, s := range o.stored[owner] {
		if access.Races(s, a) {
			key := detector.PairKey(s, a)
			if _, dup := o.races[key]; !dup {
				o.races[key] = detector.Race{Prev: s, Cur: a,
					Prov: &detector.Provenance{Owner: owner, Shard: -1}}
				o.order = append(o.order, key)
			}
		}
	}
	o.stored[owner] = append(o.stored[owner], a)
}

// EpochEnd completes owner's epoch: the per-epoch list is dropped, so
// accesses across the boundary can never pair even if a buggy producer
// stamps them with equal epoch numbers.
func (o *Oracle) EpochEnd(owner int) {
	o.stored[owner] = o.stored[owner][:0]
}

// Release retires every remote one-sided access at owner's analyzer —
// the effect of an exclusive MPI_Win_unlock. The per-target lock
// grants in FIFO order, so every lock session that completed before
// the unlock — the releasing origin's own and every earlier holder's,
// shared included — is ordered before every later holder's session.
// Only the owner's accesses (its origin-side buffers and
// unsynchronised local loads/stores) are never lock-ordered and stay
// live; which rank performed the unlock does not change what retires,
// so the rank argument is kept only for the trace-record interface.
func (o *Oracle) Release(owner, rank int) {
	_ = rank
	kept := o.stored[owner][:0]
	for _, s := range o.stored[owner] {
		if s.Rank == owner || !s.Type.IsRMA() {
			kept = append(kept, s)
		}
	}
	o.stored[owner] = kept
}

// Complete retires the locally completed span of rank's one-sided
// accesses at owner's analyzer — the effect of an MPI_Wait/MPI_Waitall
// on a request-based operation whose origin buffer is iv. Completion
// orders the request's origin-side accesses before everything after
// the wait on the issuing rank, so their stored one-sided fragments
// are trimmed to the part outside iv (a fragment extending past the
// completed buffer keeps its uncompleted remainder). Only rank's own
// one-sided accesses retire; local accesses and other ranks' accesses
// are untouched, and the target side of the request is not
// synchronised at all.
func (o *Oracle) Complete(owner, rank int, iv interval.Interval) {
	// A fresh slice, not an in-place filter: splitting one access around
	// iv keeps two pieces, which would overwrite the next unvisited one.
	kept := make([]access.Access, 0, len(o.stored[owner])+1)
	for _, s := range o.stored[owner] {
		if s.Rank != rank || !s.Type.IsRMA() || !s.Interval.Intersects(iv) {
			kept = append(kept, s)
			continue
		}
		left, okL, right, okR := s.Interval.Subtract(iv)
		if okL {
			ls := s
			ls.Interval = left
			kept = append(kept, ls)
		}
		if okR {
			rs := s
			rs.Interval = right
			kept = append(kept, rs)
		}
	}
	o.stored[owner] = kept
}

// Events returns the number of accesses processed.
func (o *Oracle) Events() int { return o.events }

// Raced reports whether any race was found.
func (o *Oracle) Raced() bool { return len(o.races) > 0 }

// Len returns the number of distinct races found.
func (o *Oracle) Len() int { return len(o.races) }

// Has reports whether the verdict set contains the given pair.
func (o *Oracle) Has(key detector.RaceKey) bool {
	_, ok := o.races[key]
	return ok
}

// Keys returns the verdict set in discovery order.
func (o *Oracle) Keys() []detector.RaceKey {
	out := make([]detector.RaceKey, len(o.order))
	copy(out, o.order)
	return out
}

// Race returns the representative verdict for a key.
func (o *Oracle) Race(key detector.RaceKey) (detector.Race, bool) {
	r, ok := o.races[key]
	return r, ok
}

// SameVerdicts reports whether two oracles agree on their complete
// verdict sets (used to assert schedule independence: permuting a
// program's interleaving must not change what races).
func (o *Oracle) SameVerdicts(p *Oracle) bool {
	if len(o.races) != len(p.races) {
		return false
	}
	for k := range o.races {
		if _, ok := p.races[k]; !ok {
			return false
		}
	}
	return true
}

// Feed processes one trace record. Unknown kinds are an error.
func (o *Oracle) Feed(rec trace.Record) error {
	switch rec.Kind {
	case "access":
		ev, err := rec.Event()
		if err != nil {
			return err
		}
		o.Access(rec.Owner, ev.Acc)
	case "epoch_end":
		o.EpochEnd(rec.Owner)
	case "release":
		o.Release(rec.Owner, rec.Rank)
	case "complete":
		o.Complete(rec.Owner, rec.Rank, interval.New(rec.Lo, rec.Hi))
	default:
		return fmt.Errorf("oracle: unknown record kind %q", rec.Kind)
	}
	return nil
}

// FromTrace runs the oracle over a whole trace stream.
func FromTrace(r *trace.Reader) (*Oracle, error) {
	o := New()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		if err := o.Feed(rec); err != nil {
			return nil, err
		}
	}
}

// FromRecords runs the oracle over in-memory records.
func FromRecords(recs []trace.Record) (*Oracle, error) {
	o := New()
	for _, rec := range recs {
		if err := o.Feed(rec); err != nil {
			return nil, err
		}
	}
	return o, nil
}
