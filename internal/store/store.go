// Package store defines the storage layer of the detector stack: the
// AccessStore interface every analyzer holds its per-(process, window)
// memory accesses in, together with adapters for the four concrete
// structures the reproduction compares — the balanced AVL interval tree
// of package itree (the contribution's store), the legacy lower-bound
// BST of package legacybst, the TSan-style shadow memory of package
// shadow, and the regular-section compression of package strided.
//
// The split makes backends swappable underneath a fixed detection
// algorithm (cmd/rmarace replay -store=..., BenchmarkAblationUnbalanced)
// instead of only whole analyzers: the ablation question "balanced vs.
// unbalanced search at equal algorithm" becomes a store selection.
//
// Detection logic (race predicates, fragmentation, merging, clocks)
// stays in the analyzers; a store only holds accesses and answers
// interval queries. Capabilities beyond the core interface — bulk
// insertion, neighbour-returning stabs, in-place extension, per-rank
// retirement — are optional interfaces with generic fallbacks, so the
// contribution's hot path keeps its allocation-free single traversal on
// the AVL backend while still running, more slowly, on any other.
package store

import (
	"fmt"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

// AccessStore is the minimal storage contract of an analyzer: a multiset
// of memory accesses queryable by interval intersection. Stores are not
// safe for concurrent use; like the analyzers that own them they are
// serialised by the per-(rank, window) engine lock.
type AccessStore interface {
	// Name identifies the backend ("avl", "legacy", "shadow", "strided").
	Name() string
	// Insert adds one access.
	Insert(a access.Access)
	// Delete removes a stored access whose interval equals iv and
	// reports whether one existed. Backends that cannot delete (the
	// legacy BST never removes nodes) report false.
	Delete(iv interval.Interval) bool
	// Stab calls fn for stored accesses intersecting iv, stopping early
	// if fn returns false, and reports whether the visit ran to
	// completion. Backends define their own completeness: the AVL tree
	// visits every intersection, the legacy BST only those on its
	// lower-bound descent path (the published false-negative defect).
	Stab(iv interval.Interval, fn func(access.Access) bool) bool
	// Walk calls fn for every stored access, stopping early if fn
	// returns false. Tree backends walk in ascending interval order.
	Walk(fn func(access.Access) bool)
	// Clear empties the store (end of an epoch).
	Clear()
	// Len returns the number of stored entries — BST nodes for the tree
	// backends (the Table 4 metric), shadow cells for the shadow
	// backend, tree nodes plus sections for the strided backend.
	Len() int
}

// BatchInserter is the optional bulk-insertion capability. InsertBatch
// must be equivalent to inserting the accesses in order; backends
// implement it when amortising per-call overhead is worthwhile.
type BatchInserter interface {
	InsertBatch(batch []access.Access)
}

// InsertBatch bulk-inserts through the capability when present, falling
// back to one Insert per access.
func InsertBatch(s AccessStore, batch []access.Access) {
	if b, ok := s.(BatchInserter); ok {
		b.InsertBatch(batch)
		return
	}
	for _, a := range batch {
		s.Insert(a)
	}
}

// NeighborStabber is the optional single-traversal stab of the
// contribution's hot path: one descent yields the intersecting accesses
// and the two boundary neighbours merging may coalesce with.
type NeighborStabber interface {
	StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool)
}

// StabNeighbors performs the neighbour-returning stab through the
// capability when present. The fallback widens iv by one address on each
// side, stabs, and classifies the results by position; it is only
// meaningful under the disjointness invariant the contribution
// maintains (a neighbour touching iv.Lo-1 ends exactly there).
func StabNeighbors(s AccessStore, iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	if ns, ok := s.(NeighborStabber); ok {
		return ns.StabNeighbors(iv, dst)
	}
	// The closure-based fallback lives in its own function so its
	// captures do not force this hot function's results onto the heap.
	return stabNeighborsGeneric(s, iv, dst)
}

func stabNeighborsGeneric(s AccessStore, iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	wide := iv
	if wide.Lo > 0 {
		wide.Lo--
	}
	if wide.Hi+1 != 0 {
		wide.Hi++
	}
	s.Stab(wide, func(a access.Access) bool {
		switch {
		case a.Hi < iv.Lo:
			left, hasLeft = a, true
		case a.Lo > iv.Hi:
			right, hasRight = a, true
		default:
			*dst = append(*dst, a)
		}
		return true
	})
	return left, right, hasLeft, hasRight
}

// Extender is the optional in-place boundary-extension capability used
// by the merge fast path: growing a stored access over an adjacent new
// one without a delete+insert pair.
type Extender interface {
	ExtendHi(iv interval.Interval, newHi uint64) bool
	ExtendLo(iv interval.Interval, newLo uint64) bool
}

// ExtendHi grows stored access a (identified by its current interval) up
// to newHi, in place when the backend supports it, by delete+reinsert
// otherwise. It reports whether the access was found. The grown access
// is inserted even when Delete finds nothing: backends that never
// delete by interval (shadow cells, the legacy BST) must still record
// the range the merge extends over.
func ExtendHi(s AccessStore, a access.Access, newHi uint64) bool {
	if e, ok := s.(Extender); ok {
		return e.ExtendHi(a.Interval, newHi)
	}
	found := s.Delete(a.Interval)
	a.Hi = newHi
	s.Insert(a)
	return found
}

// ExtendLo lowers stored access a's lower bound to newLo; see ExtendHi.
func ExtendLo(s AccessStore, a access.Access, newLo uint64) bool {
	if e, ok := s.(Extender); ok {
		return e.ExtendLo(a.Interval, newLo)
	}
	found := s.Delete(a.Interval)
	a.Lo = newLo
	s.Insert(a)
	return found
}

// RankRemover is the optional per-rank retirement capability backing
// the unsafe-flush ablation (the published fig. 5 defect retires the
// calling rank's accesses). The fallback walks and deletes.
type RankRemover interface {
	RemoveRank(rank int)
}

// RemoveRank retires every stored access issued by rank.
func RemoveRank(s AccessStore, rank int) {
	if rr, ok := s.(RankRemover); ok {
		rr.RemoveRank(rank)
		return
	}
	var doomed []access.Access
	s.Walk(func(a access.Access) bool {
		if a.Rank == rank {
			doomed = append(doomed, a)
		}
		return true
	})
	for _, d := range doomed {
		s.Delete(d.Interval)
	}
}

// RemoteRemover is the optional retirement capability backing
// Analyzer.Release (exclusive-unlock ordering): retire every stored
// one-sided access issued by a rank other than the store's owner. The
// fallback walks and deletes.
type RemoteRemover interface {
	RemoveRemote(owner int)
}

// RemoveRemote retires every stored RMA access whose issuing rank is
// not owner. This is the storage effect of an exclusive MPI_Win_unlock:
// the per-target lock grants in FIFO order, so every lock session that
// completed before the unlock — the releasing origin's own and every
// earlier holder's, shared included — is ordered before every later
// holder's session. The owner's accesses (its origin-side buffers and
// unsynchronised local loads/stores) are never lock-ordered and
// survive. Unlike a per-rank retirement this is exact even after
// Table 1 fragment combination: remote accesses only ever share a
// fragment with other remote accesses, and those retire together.
func RemoveRemote(s AccessStore, owner int) {
	if rr, ok := s.(RemoteRemover); ok {
		rr.RemoveRemote(owner)
		return
	}
	var doomed []access.Access
	s.Walk(func(a access.Access) bool {
		if a.Rank != owner && a.Type.IsRMA() {
			doomed = append(doomed, a)
		}
		return true
	})
	for _, d := range doomed {
		s.Delete(d.Interval)
	}
}

// SpanRemover is the optional retirement capability backing
// Analyzer.CompleteRequest (request-based local completion): trim
// rank's stored one-sided accesses to the part outside iv. The
// fallback stabs and delete/reinserts.
type SpanRemover interface {
	RemoveRankSpan(rank int, iv interval.Interval)
}

// RemoveRankSpan retires the parts of rank's stored one-sided accesses
// that lie inside iv — the storage effect of a request's local
// completion (MPI_Wait/MPI_Waitall over an Rput/Rget whose origin
// buffer is iv): the completed buffer's accesses become ordered before
// everything after the wait on the issuing rank. A fragment extending
// past iv keeps its uncompleted remainder, so the retirement matches
// the reference semantics exactly on every backend with exact Delete;
// the legacy BST (Delete always false) keeps its accesses, which is
// sound — at worst extra pairs on buffer reuse. Local accesses and
// other ranks' accesses never retire here, and the request's
// target-side accesses live at a different analyzer entirely.
func RemoveRankSpan(s AccessStore, rank int, iv interval.Interval) {
	if sr, ok := s.(SpanRemover); ok {
		sr.RemoveRankSpan(rank, iv)
		return
	}
	trimRankSpan(s, rank, iv)
}

// trimRankSpan is RemoveRankSpan's generic fallback: stab iv, delete
// rank's one-sided accesses there, and reinsert the parts outside iv.
func trimRankSpan(s AccessStore, rank int, iv interval.Interval) {
	var doomed []access.Access
	s.Stab(iv, func(a access.Access) bool {
		if a.Rank == rank && a.Type.IsRMA() {
			doomed = append(doomed, a)
		}
		return true
	})
	for _, d := range doomed {
		if !s.Delete(d.Interval) {
			continue
		}
		left, okL, right, okR := d.Interval.Subtract(iv)
		if okL {
			ls := d
			ls.Interval = left
			s.Insert(ls)
		}
		if okR {
			rs := d
			rs.Interval = right
			s.Insert(rs)
		}
	}
}

// Compacter is the optional memory-compaction capability: Compact
// releases capacity retained purely to amortise allocation (node free
// lists, spare buffers) without touching stored accesses, so it is
// always verdict-preserving. Backends without retained capacity simply
// don't implement it.
type Compacter interface {
	Compact()
}

// Compact releases a store's retained capacity through the capability
// when present; otherwise it is a no-op.
func Compact(s AccessStore) {
	if c, ok := s.(Compacter); ok {
		c.Compact()
	}
}

// Items returns the stored accesses in Walk order, for inspection and
// testing.
func Items(s AccessStore) []access.Access {
	out := make([]access.Access, 0, s.Len())
	s.Walk(func(a access.Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

// Names lists the selectable backends in presentation order.
func Names() []string { return []string{"avl", "legacy", "shadow", "strided"} }

// New builds a backend by name. The AVL interval tree is the default
// store of the contribution; the others exist for ablation and
// comparison runs.
func New(name string) (AccessStore, error) {
	switch name {
	case "avl", "":
		return NewAVL(), nil
	case "legacy":
		return NewLegacyBST(), nil
	case "shadow":
		return NewShadow(), nil
	case "strided":
		return NewStrided(), nil
	}
	return nil, fmt.Errorf("store: unknown backend %q (have %v)", name, Names())
}
