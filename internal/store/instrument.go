package store

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
)

// Instrumented decorates an AccessStore with observability: every
// insert, delete and stabbing query is recorded against an
// obs.Recorder under the owner's label (its rank). Stab queries
// additionally record how many stored entries the query visited — the
// measured "stab-query depth" of Algorithm 1's single traversal.
//
// The decorator forwards the optional capabilities through the
// package-level helpers, so a wrapped AVL backend keeps its
// single-traversal hot path and a wrapped legacy backend keeps its
// published defects. Extender is special: its signature carries only
// the interval, so the decorator claims it only when the backend
// really implements it (see Instrument) — otherwise the package
// fallback's delete+reinsert runs against the decorator with the full
// access and stays correct (and counted). The analyzers only wrap
// their store when recording is enabled; the disabled path never sees
// this type.
type Instrumented struct {
	inner AccessStore
	rec   obs.Recorder
	label int
	// visited counts the entries the running Stab has passed on to
	// stabFn. count, the method value Stab hands the backend, is bound
	// once in Instrument: a closure over a per-call counter would cost
	// an allocation on every recorded stab.
	visited int64
	stabFn  func(access.Access) bool
	count   func(access.Access) bool
}

// instrumentedExtender adds the in-place extension capability for
// backends that have it themselves.
type instrumentedExtender struct {
	*Instrumented
	ext Extender
}

// Instrument wraps s so its traffic is recorded against rec under
// label. A nil or disabled recorder returns s unchanged.
func Instrument(s AccessStore, rec obs.Recorder, label int) AccessStore {
	rec = obs.OrDisabled(rec)
	if !rec.Enabled() {
		return s
	}
	w := &Instrumented{inner: s, rec: rec, label: label}
	w.count = w.countVisit
	if ext, ok := s.(Extender); ok {
		return &instrumentedExtender{Instrumented: w, ext: ext}
	}
	return w
}

// Name implements AccessStore, forwarding the backend's name.
func (s *Instrumented) Name() string { return s.inner.Name() }

// Insert implements AccessStore.
func (s *Instrumented) Insert(a access.Access) {
	s.rec.Add(obs.StoreInserts, s.label, 1)
	s.inner.Insert(a)
}

// InsertBatch implements BatchInserter through the generic helper.
func (s *Instrumented) InsertBatch(batch []access.Access) {
	s.rec.Add(obs.StoreInserts, s.label, int64(len(batch)))
	InsertBatch(s.inner, batch)
}

// Delete implements AccessStore.
func (s *Instrumented) Delete(iv interval.Interval) bool {
	ok := s.inner.Delete(iv)
	if ok {
		s.rec.Add(obs.StoreDeletes, s.label, 1)
	}
	return ok
}

// Stab implements AccessStore, recording the number of entries the
// query visited.
func (s *Instrumented) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	s.visited, s.stabFn = 0, fn
	complete := s.inner.Stab(iv, s.count)
	s.stabFn = nil
	s.rec.Observe(obs.StabVisited, s.label, s.visited)
	return complete
}

// countVisit counts one entry the running Stab visited and passes it on.
func (s *Instrumented) countVisit(a access.Access) bool {
	s.visited++
	return s.stabFn(a)
}

// StabNeighbors implements NeighborStabber through the package helper
// (which uses the backend's own capability when present), recording
// intersections plus boundary neighbours as the visit count.
func (s *Instrumented) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	before := len(*dst)
	left, right, hasLeft, hasRight = StabNeighbors(s.inner, iv, dst)
	visited := int64(len(*dst) - before)
	if hasLeft {
		visited++
	}
	if hasRight {
		visited++
	}
	s.rec.Observe(obs.StabVisited, s.label, visited)
	return left, right, hasLeft, hasRight
}

// RemoveRank implements RankRemover through the package helper.
func (s *Instrumented) RemoveRank(rank int) {
	before := s.inner.Len()
	RemoveRank(s.inner, rank)
	if removed := before - s.inner.Len(); removed > 0 {
		s.rec.Add(obs.StoreDeletes, s.label, int64(removed))
	}
}

// RemoveRemote implements RemoteRemover through the package helper.
func (s *Instrumented) RemoveRemote(owner int) {
	before := s.inner.Len()
	RemoveRemote(s.inner, owner)
	if removed := before - s.inner.Len(); removed > 0 {
		s.rec.Add(obs.StoreDeletes, s.label, int64(removed))
	}
}

// RemoveRankSpan implements SpanRemover. A backend with the capability
// of its own runs it, counted like RemoveRemote: the shadow store's
// Delete never removes anything, so the generic trim would keep the
// completed entries. Otherwise the generic trim runs through the
// decorator, which counts its deletes and reinserts one by one.
func (s *Instrumented) RemoveRankSpan(rank int, iv interval.Interval) {
	sr, ok := s.inner.(SpanRemover)
	if !ok {
		trimRankSpan(s, rank, iv)
		return
	}
	before := s.inner.Len()
	sr.RemoveRankSpan(rank, iv)
	if removed := before - s.inner.Len(); removed > 0 {
		s.rec.Add(obs.StoreDeletes, s.label, int64(removed))
	}
}

// Walk implements AccessStore.
func (s *Instrumented) Walk(fn func(access.Access) bool) { s.inner.Walk(fn) }

// Clear implements AccessStore.
func (s *Instrumented) Clear() { s.inner.Clear() }

// Len implements AccessStore.
func (s *Instrumented) Len() int { return s.inner.Len() }

// Compact implements Compacter through the package helper (a no-op when
// the backend has no retained capacity).
func (s *Instrumented) Compact() { Compact(s.inner) }

// ExtendHi implements Extender. The in-place extension counts as one
// insert (the merge fast path's node-growth write).
func (s *instrumentedExtender) ExtendHi(iv interval.Interval, newHi uint64) bool {
	s.rec.Add(obs.StoreInserts, s.label, 1)
	return s.ext.ExtendHi(iv, newHi)
}

// ExtendLo implements Extender; see ExtendHi.
func (s *instrumentedExtender) ExtendLo(iv interval.Interval, newLo uint64) bool {
	s.rec.Add(obs.StoreInserts, s.label, 1)
	return s.ext.ExtendLo(iv, newLo)
}

var (
	_ AccessStore     = (*Instrumented)(nil)
	_ NeighborStabber = (*Instrumented)(nil)
	_ BatchInserter   = (*Instrumented)(nil)
	_ RankRemover     = (*Instrumented)(nil)
	_ RemoteRemover   = (*Instrumented)(nil)
	_ SpanRemover     = (*Instrumented)(nil)
	_ Extender        = (*instrumentedExtender)(nil)
)
