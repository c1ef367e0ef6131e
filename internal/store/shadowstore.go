package store

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
	"rmarace/internal/shadow"
)

// Shadow adapts the TSan-style shadow memory of package shadow to the
// AccessStore interface. Accesses are recorded per granule, so stored
// entries are conflated to granule-wide intervals (as in the real tool)
// and Stab reports at granule resolution. The MUST-RMA analyzer holds
// this store and reaches the clock-carrying Record path through the
// Recorder capability; as a plain AccessStore (the -store=shadow
// ablation) entries carry no happens-before information and every
// stored access is treated as live until Clear.
type Shadow struct {
	mem *shadow.Memory
}

// NewShadow returns a shadow-memory store owned by rank 0.
func NewShadow() *Shadow { return NewShadowOwner(0) }

// NewShadowOwner returns a shadow-memory store for the given owning
// rank (the only rank whose local accesses can appear in it).
func NewShadowOwner(owner int) *Shadow {
	return &Shadow{mem: shadow.NewMemoryOwner(owner)}
}

// Name implements AccessStore.
func (*Shadow) Name() string { return "shadow" }

// Record registers an access with full clock information and returns
// the first conflict, the MUST-RMA analysis path.
func (s *Shadow) Record(a access.Access, e shadow.Entry) *shadow.Conflict {
	return s.mem.Record(a, e)
}

// Insert implements AccessStore by recording the access without clock
// information (a plain entry stamped with the access's rank).
func (s *Shadow) Insert(a access.Access) {
	s.mem.Record(a, shadow.Entry{Rank: a.Rank, IsRMA: a.Type.IsRMA()})
}

// Delete implements AccessStore. Shadow cells retire by epoch (Clear),
// by rank (RemoveRank) or by remoteness (RemoveRemote), never by
// interval; Delete reports false.
func (s *Shadow) Delete(interval.Interval) bool { return false }

// entryAccess reconstructs the stored-access view of one shadow entry.
func (s *Shadow) entryAccess(base uint64, e shadow.Entry) access.Access {
	return access.Access{
		Interval: interval.Span(base, s.mem.GranuleSize()),
		Type:     e.Type,
		Rank:     e.Rank,
		Epoch:    e.Epoch,
		Debug:    e.Debug,
		AccumOp:  e.AccumOp,
	}
}

// Stab implements AccessStore at granule resolution: every entry whose
// granule intersects iv is reported with its granule interval.
func (s *Shadow) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	return s.mem.VisitRange(iv.Lo, iv.Hi, func(base uint64, e shadow.Entry) bool {
		return fn(s.entryAccess(base, e))
	})
}

// Walk implements AccessStore in arbitrary cell order.
func (s *Shadow) Walk(fn func(access.Access) bool) {
	s.mem.VisitAll(func(base uint64, e shadow.Entry) bool {
		return fn(s.entryAccess(base, e))
	})
}

// RemoveRank implements RankRemover via the shadow memory's per-rank
// retirement (the unsafe-flush ablation).
func (s *Shadow) RemoveRank(rank int) { s.mem.RemoveRank(rank) }

// RemoveRemote implements RemoteRemover via the shadow memory (the
// exclusive-unlock ordering: every remote one-sided entry retires).
func (s *Shadow) RemoveRemote(owner int) { s.mem.RemoveRemote(owner) }

// RemoveRankSpan implements SpanRemover via the shadow memory's
// granule-resolution range retirement (request-based local completion).
// Delete reports false here, so without this capability the generic
// trim would keep completed entries alive.
func (s *Shadow) RemoveRankSpan(rank int, iv interval.Interval) {
	s.mem.RemoveRankRange(rank, iv.Lo, iv.Hi)
}

// Clear implements AccessStore.
func (s *Shadow) Clear() { s.mem.Clear() }

// Len implements AccessStore: the number of live shadow cells.
func (s *Shadow) Len() int { return s.mem.Cells() }

var (
	_ AccessStore   = (*Shadow)(nil)
	_ RankRemover   = (*Shadow)(nil)
	_ RemoteRemover = (*Shadow)(nil)
	_ SpanRemover   = (*Shadow)(nil)
)
