package core

import (
	"fmt"
	"sort"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/shard"
)

// Sharded partitions one (process, window) analysis across K
// independent Analyzers, each owning the accesses of a contiguous set
// of address-space granules (package shard). An access spanning a shard
// boundary is split at the boundary; since Algorithm 1 keeps stored
// intervals pairwise disjoint and the race predicate is per-overlap,
// every overlap lies wholly inside one granule and is seen by exactly
// one shard, in arrival order — verdicts are identical at every shard
// count. What does change is the stored-interval set at the boundaries
// themselves: a merged run crossing a granule boundary is held as one
// piece per granule, so shard node counts sum to slightly more than the
// unsharded count (never less; the equivalence tests coalesce at the
// boundaries before comparing).
//
// Sharded processes serially (Access/AccessBatch route pieces to the
// owning sub-analyzer in order), so it is a partition, not a parallel
// path: nothing drives the shards concurrently. Only the offline replay
// surfaces (`replay -shards`, a session's `?shards=`, the fuzz and
// conformance matrices) build one.
type Sharded struct {
	m    shard.Map
	subs []*Analyzer
	// route is the reusable per-shard partition buffer of AccessBatch.
	route [][]detector.Event
}

// NewSharded returns a sharded analyzer of shards independent
// sub-analyzers, each built with opts. shards must be a power of two;
// shard options inside opts (WithShards, WithShardGranule) configure
// the map. A shared-store option (WithStore) is rejected: each shard
// must own an independent store — use WithStoreFactory.
func NewSharded(shards int, opts ...Option) *Sharded {
	probe := &Analyzer{}
	for _, o := range opts {
		o(probe)
	}
	if probe.st != nil {
		panic("core: NewSharded with a shared WithStore backend; use WithStoreFactory so each shard owns its store")
	}
	m, err := shard.New(shards, probe.shardGranule)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	s := &Sharded{
		m:     m,
		subs:  make([]*Analyzer, shards),
		route: make([][]detector.Event, shards),
	}
	for i := range s.subs {
		s.subs[i] = New(opts...)
	}
	return s
}

// Build returns the analyzer selected by opts: a *Sharded when
// WithShards(k > 1) is among them, a plain *Analyzer otherwise. It is
// the constructor the replay surfaces go through.
func Build(opts ...Option) detector.Analyzer {
	probe := &Analyzer{}
	for _, o := range opts {
		o(probe)
	}
	if probe.shardCount > 1 {
		return NewSharded(probe.shardCount, opts...)
	}
	return New(opts...)
}

// Name implements detector.Analyzer.
func (*Sharded) Name() string { return "our-contribution" }

// NumShards implements detector.Sharder.
func (s *Sharded) NumShards() int { return len(s.subs) }

// ShardAnalyzer implements detector.Sharder.
func (s *Sharded) ShardAnalyzer(i int) detector.Analyzer { return s.subs[i] }

// RouteEach implements detector.Sharder: ev is split at granule
// boundaries and emitted piece by piece in ascending address order.
func (s *Sharded) RouteEach(ev detector.Event, emit func(int, detector.Event)) {
	s.m.Split(ev.Acc.Lo, ev.Acc.Hi, func(sh int, lo, hi uint64) {
		piece := ev
		piece.Acc.Lo, piece.Acc.Hi = lo, hi
		emit(sh, piece)
	})
}

// Access implements detector.Analyzer: the event's pieces are analysed
// by their owning shards in ascending address order; the first race
// wins.
func (s *Sharded) Access(ev detector.Event) *detector.Race {
	var race *detector.Race
	s.m.Split(ev.Acc.Lo, ev.Acc.Hi, func(sh int, lo, hi uint64) {
		if race != nil {
			return
		}
		piece := ev
		piece.Acc.Lo, piece.Acc.Hi = lo, hi
		race = s.subs[sh].Access(piece)
		if race != nil {
			race.EnsureProv().Shard = sh
		}
	})
	return race
}

// AccessBatch implements detector.BatchAnalyzer: the batch is
// partitioned by shard (preserving per-shard order) and each shard
// analyses its sub-batch in order.
func (s *Sharded) AccessBatch(evs []detector.Event) *detector.Race {
	for i := range s.route {
		s.route[i] = s.route[i][:0]
	}
	for i := range evs {
		s.RouteEach(evs[i], func(sh int, piece detector.Event) {
			s.route[sh] = append(s.route[sh], piece)
		})
	}
	for sh, sub := range s.subs {
		if len(s.route[sh]) == 0 {
			continue
		}
		if race := sub.AccessBatch(s.route[sh]); race != nil {
			race.EnsureProv().Shard = sh
			return race
		}
	}
	return nil
}

// EpochEnd implements detector.Analyzer.
func (s *Sharded) EpochEnd() {
	for _, sub := range s.subs {
		sub.EpochEnd()
	}
}

// Flush implements detector.Analyzer.
func (s *Sharded) Flush(rank int) {
	for _, sub := range s.subs {
		sub.Flush(rank)
	}
}

// Release implements detector.Analyzer.
func (s *Sharded) Release(rank int) {
	for _, sub := range s.subs {
		sub.Release(rank)
	}
}

// CompleteRequest implements detector.RequestCompleter: the completed
// origin-buffer span is split at granule boundaries and each shard
// trims its own piece, exactly like access routing.
func (s *Sharded) CompleteRequest(rank int, iv interval.Interval) {
	s.m.Split(iv.Lo, iv.Hi, func(sh int, lo, hi uint64) {
		s.subs[sh].CompleteRequest(rank, interval.New(lo, hi))
	})
}

// Nodes implements detector.Analyzer: the current stored-entry count
// summed over shards.
func (s *Sharded) Nodes() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Nodes()
	}
	return n
}

// MaxNodes implements detector.Analyzer as the sum of the per-shard
// high-water marks (the Table 4 aggregate, shard-aware). The per-shard
// peaks need not be simultaneous, so the sum is an upper bound on the
// instantaneous total; at shard count 1 it is exact, keeping
// paper-validation numbers comparable.
func (s *Sharded) MaxNodes() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.MaxNodes()
	}
	return n
}

// Compact implements detector.Compacter: every shard compacts, and the
// routing partition buffers are released too.
func (s *Sharded) Compact() {
	for _, sub := range s.subs {
		sub.Compact()
	}
	for i := range s.route {
		s.route[i] = nil
	}
}

// Accesses implements detector.Analyzer. Pieces count individually, so
// an access straddling a shard boundary counts once per piece.
func (s *Sharded) Accesses() uint64 {
	var n uint64
	for _, sub := range s.subs {
		n += sub.Accesses()
	}
	return n
}

// Items returns every shard's stored accesses, sorted by interval, for
// inspection and the equivalence tests.
func (s *Sharded) Items() []access.Access {
	var out []access.Access
	for _, sub := range s.subs {
		out = append(out, sub.Items()...)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Interval.Compare(out[j].Interval) < 0
	})
	return out
}

var (
	_ detector.Analyzer         = (*Sharded)(nil)
	_ detector.BatchAnalyzer    = (*Sharded)(nil)
	_ detector.Sharder          = (*Sharded)(nil)
	_ detector.Compacter        = (*Sharded)(nil)
	_ detector.RequestCompleter = (*Sharded)(nil)
)
