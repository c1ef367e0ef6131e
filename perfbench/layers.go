package main

import (
	"fmt"
	"time"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/store"
	"rmarace/internal/trace"
)

// The traced run times each layer from the benchmark's side of its
// public interface: a trace.Source decorator around the decoder, a
// detector.Analyzer decorator around each per-owner analyzer, and a
// store.AccessStore decorator handed to the analyzer through
// core.WithStoreFactory. Nothing inside the program is probed.
//
// Optional capabilities decide which code path the program takes
// (detector.AccessBatch uses a BatchAnalyzer when present, the analyzer
// stabs through a NeighborStabber when present, ...). A decorator that
// claimed a capability its inner value lacks, or hid one it has, would
// time a different program, so each decorator satisfies exactly the
// optional interfaces of the value it wraps, and refuses values whose
// capabilities it does not forward.

// layerTime accumulates one layer's busy time, the calls that did its
// main work and the items those calls covered (events for the analyzer,
// records for the decoder).
type layerTime struct {
	ns    int64
	calls int64
	items int64
}

// add charges the time since t0 to the layer.
func (l *layerTime) add(t0 time.Time) { l.ns += int64(time.Since(t0)) }

// layerClock holds the timers of one traced replay. Replays are
// single-goroutine, so the timers need no synchronisation.
type layerClock struct {
	read     layerTime // Source.Read: calls and items are records decoded
	analyzer layerTime // every analyzer call; calls/items count Access and AccessBatch
	store    layerTime // every store call but Len; calls counts them
	builds   int64     // analyzers constructed (rebuilt after eviction included)
}

// timedSource times Source.Read.
type timedSource struct {
	trace.Source
	t *layerTime
}

func (s timedSource) Read(rec *trace.Record) error {
	t0 := time.Now()
	err := s.Source.Read(rec)
	s.t.add(t0)
	if err == nil {
		s.t.calls++
		s.t.items++
	}
	return err
}

// timedAnalyzer times every call into a detector.Analyzer. The optional
// capabilities live on the mixins below and are attached per value by
// timeAnalyzer.
type timedAnalyzer struct {
	inner    detector.Analyzer
	t        *layerTime
	batch    detector.BatchAnalyzer
	compact  detector.Compacter
	complete detector.RequestCompleter
}

func (a *timedAnalyzer) Name() string { return a.inner.Name() }

func (a *timedAnalyzer) Access(ev detector.Event) *detector.Race {
	t0 := time.Now()
	r := a.inner.Access(ev)
	a.t.add(t0)
	a.t.calls++
	a.t.items++
	return r
}

func (a *timedAnalyzer) EpochEnd() {
	t0 := time.Now()
	a.inner.EpochEnd()
	a.t.add(t0)
}

func (a *timedAnalyzer) Flush(rank int) {
	t0 := time.Now()
	a.inner.Flush(rank)
	a.t.add(t0)
}

func (a *timedAnalyzer) Release(rank int) {
	t0 := time.Now()
	a.inner.Release(rank)
	a.t.add(t0)
}

func (a *timedAnalyzer) Nodes() int       { return a.inner.Nodes() }
func (a *timedAnalyzer) MaxNodes() int    { return a.inner.MaxNodes() }
func (a *timedAnalyzer) Accesses() uint64 { return a.inner.Accesses() }

type analyzerBatch struct{ a *timedAnalyzer }

func (m analyzerBatch) AccessBatch(evs []detector.Event) *detector.Race {
	t0 := time.Now()
	r := m.a.batch.AccessBatch(evs)
	m.a.t.add(t0)
	m.a.t.calls++
	m.a.t.items += int64(len(evs))
	return r
}

type analyzerCompact struct{ a *timedAnalyzer }

func (m analyzerCompact) Compact() {
	t0 := time.Now()
	m.a.compact.Compact()
	m.a.t.add(t0)
}

type analyzerComplete struct{ a *timedAnalyzer }

func (m analyzerComplete) CompleteRequest(rank int, iv interval.Interval) {
	t0 := time.Now()
	m.a.complete.CompleteRequest(rank, iv)
	m.a.t.add(t0)
}

// timeAnalyzer wraps a so every call is charged to t. The result
// implements exactly those of detector.BatchAnalyzer, detector.Compacter
// and detector.RequestCompleter that a implements. A sharded analyzer
// is refused: its Sharder capability is not forwarded.
func timeAnalyzer(a detector.Analyzer, t *layerTime) (detector.Analyzer, error) {
	if _, ok := a.(detector.Sharder); ok {
		return nil, fmt.Errorf("perfbench: cannot time sharded analyzer %s", a.Name())
	}
	w := &timedAnalyzer{inner: a, t: t}
	mask := 0
	if b, ok := a.(detector.BatchAnalyzer); ok {
		w.batch, mask = b, mask|1
	}
	if c, ok := a.(detector.Compacter); ok {
		w.compact, mask = c, mask|2
	}
	if r, ok := a.(detector.RequestCompleter); ok {
		w.complete, mask = r, mask|4
	}
	b, c, r := analyzerBatch{w}, analyzerCompact{w}, analyzerComplete{w}
	switch mask {
	case 1:
		return struct {
			*timedAnalyzer
			analyzerBatch
		}{w, b}, nil
	case 2:
		return struct {
			*timedAnalyzer
			analyzerCompact
		}{w, c}, nil
	case 3:
		return struct {
			*timedAnalyzer
			analyzerBatch
			analyzerCompact
		}{w, b, c}, nil
	case 4:
		return struct {
			*timedAnalyzer
			analyzerComplete
		}{w, r}, nil
	case 5:
		return struct {
			*timedAnalyzer
			analyzerBatch
			analyzerComplete
		}{w, b, r}, nil
	case 6:
		return struct {
			*timedAnalyzer
			analyzerCompact
			analyzerComplete
		}{w, c, r}, nil
	case 7:
		return struct {
			*timedAnalyzer
			analyzerBatch
			analyzerCompact
			analyzerComplete
		}{w, b, c, r}, nil
	}
	return w, nil
}

// timedStore times every call into a store.AccessStore except Len,
// which the analyzers call for node-count bookkeeping, not store work.
type timedStore struct {
	inner   store.AccessStore
	t       *layerTime
	stab    store.NeighborStabber
	extend  store.Extender
	batch   store.BatchInserter
	compact store.Compacter
}

func (s *timedStore) Name() string { return s.inner.Name() }
func (s *timedStore) Len() int     { return s.inner.Len() }

func (s *timedStore) Insert(a access.Access) {
	t0 := time.Now()
	s.inner.Insert(a)
	s.t.add(t0)
	s.t.calls++
}

func (s *timedStore) Delete(iv interval.Interval) bool {
	t0 := time.Now()
	ok := s.inner.Delete(iv)
	s.t.add(t0)
	s.t.calls++
	return ok
}

func (s *timedStore) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	t0 := time.Now()
	ok := s.inner.Stab(iv, fn)
	s.t.add(t0)
	s.t.calls++
	return ok
}

func (s *timedStore) Walk(fn func(access.Access) bool) {
	t0 := time.Now()
	s.inner.Walk(fn)
	s.t.add(t0)
	s.t.calls++
}

func (s *timedStore) Clear() {
	t0 := time.Now()
	s.inner.Clear()
	s.t.add(t0)
	s.t.calls++
}

type storeStab struct{ s *timedStore }

func (m storeStab) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	t0 := time.Now()
	left, right, hasLeft, hasRight = m.s.stab.StabNeighbors(iv, dst)
	m.s.t.add(t0)
	m.s.t.calls++
	return left, right, hasLeft, hasRight
}

type storeExtend struct{ s *timedStore }

func (m storeExtend) ExtendHi(iv interval.Interval, newHi uint64) bool {
	t0 := time.Now()
	ok := m.s.extend.ExtendHi(iv, newHi)
	m.s.t.add(t0)
	m.s.t.calls++
	return ok
}

func (m storeExtend) ExtendLo(iv interval.Interval, newLo uint64) bool {
	t0 := time.Now()
	ok := m.s.extend.ExtendLo(iv, newLo)
	m.s.t.add(t0)
	m.s.t.calls++
	return ok
}

type storeBatch struct{ s *timedStore }

func (m storeBatch) InsertBatch(batch []access.Access) {
	t0 := time.Now()
	m.s.batch.InsertBatch(batch)
	m.s.t.add(t0)
	m.s.t.calls++
}

type storeCompact struct{ s *timedStore }

func (m storeCompact) Compact() {
	t0 := time.Now()
	m.s.compact.Compact()
	m.s.t.add(t0)
	m.s.t.calls++
}

// timeStore wraps s so every call is charged to t. The result
// implements exactly those of store.NeighborStabber, store.Extender,
// store.BatchInserter and store.Compacter that s implements. Backends
// with a retirement capability (RankRemover, RemoteRemover,
// SpanRemover) are refused: those are not forwarded.
func timeStore(s store.AccessStore, t *layerTime) (store.AccessStore, error) {
	if _, ok := s.(store.RankRemover); ok {
		return nil, fmt.Errorf("perfbench: cannot time store %s: RankRemover is not forwarded", s.Name())
	}
	if _, ok := s.(store.RemoteRemover); ok {
		return nil, fmt.Errorf("perfbench: cannot time store %s: RemoteRemover is not forwarded", s.Name())
	}
	if _, ok := s.(store.SpanRemover); ok {
		return nil, fmt.Errorf("perfbench: cannot time store %s: SpanRemover is not forwarded", s.Name())
	}
	w := &timedStore{inner: s, t: t}
	mask := 0
	if n, ok := s.(store.NeighborStabber); ok {
		w.stab, mask = n, mask|1
	}
	if e, ok := s.(store.Extender); ok {
		w.extend, mask = e, mask|2
	}
	if b, ok := s.(store.BatchInserter); ok {
		w.batch, mask = b, mask|4
	}
	if c, ok := s.(store.Compacter); ok {
		w.compact, mask = c, mask|8
	}
	n, e, b, c := storeStab{w}, storeExtend{w}, storeBatch{w}, storeCompact{w}
	switch mask {
	case 1:
		return struct {
			*timedStore
			storeStab
		}{w, n}, nil
	case 2:
		return struct {
			*timedStore
			storeExtend
		}{w, e}, nil
	case 3:
		return struct {
			*timedStore
			storeStab
			storeExtend
		}{w, n, e}, nil
	case 4:
		return struct {
			*timedStore
			storeBatch
		}{w, b}, nil
	case 5:
		return struct {
			*timedStore
			storeStab
			storeBatch
		}{w, n, b}, nil
	case 6:
		return struct {
			*timedStore
			storeExtend
			storeBatch
		}{w, e, b}, nil
	case 7:
		return struct {
			*timedStore
			storeStab
			storeExtend
			storeBatch
		}{w, n, e, b}, nil
	case 8:
		return struct {
			*timedStore
			storeCompact
		}{w, c}, nil
	case 9:
		return struct {
			*timedStore
			storeStab
			storeCompact
		}{w, n, c}, nil
	case 10:
		return struct {
			*timedStore
			storeExtend
			storeCompact
		}{w, e, c}, nil
	case 11:
		return struct {
			*timedStore
			storeStab
			storeExtend
			storeCompact
		}{w, n, e, c}, nil
	case 12:
		return struct {
			*timedStore
			storeBatch
			storeCompact
		}{w, b, c}, nil
	case 13:
		return struct {
			*timedStore
			storeStab
			storeBatch
			storeCompact
		}{w, n, b, c}, nil
	case 14:
		return struct {
			*timedStore
			storeExtend
			storeBatch
			storeCompact
		}{w, e, b, c}, nil
	case 15:
		return struct {
			*timedStore
			storeStab
			storeExtend
			storeBatch
			storeCompact
		}{w, n, e, b, c}, nil
	}
	return w, nil
}
