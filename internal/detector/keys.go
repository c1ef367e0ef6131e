package detector

import "rmarace/internal/access"

// AccessKey identifies one side of a race verdict independent of
// interval geometry. Identity must be interval-free because the
// pipeline rewrites addresses without changing what raced:
//
//   - fragmentation narrows a stored access's interval to the disjoint
//     pieces of Algorithm 1, keeping its rank/epoch/type/debug (Combine
//     hands the fragment the surviving access's identity whole);
//   - merging widens a node over adjacent accesses, which Mergeable
//     only permits when every identity field is equal;
//   - sharding splits the incoming access at shard boundaries, so the
//     reported Cur may be any piece of the instrumented interval;
//   - the shadow backend conflates addresses to 8-byte granules.
//
// Two verdicts about the same pair of program accesses therefore agree
// on their AccessKeys even when they disagree on the exact bytes, which
// is what lets the differential oracle compare verdict sets across
// every store, shard and batch configuration.
type AccessKey struct {
	Rank    int
	Epoch   uint64
	Type    access.Type
	AccumOp access.AccumOp
	Stack   bool
	File    string
	Line    int
}

// KeyOf extracts an access's identity key.
func KeyOf(a access.Access) AccessKey {
	return AccessKey{
		Rank:    a.Rank,
		Epoch:   a.Epoch,
		Type:    a.Type,
		AccumOp: a.AccumOp,
		Stack:   a.Stack,
		File:    a.Debug.File,
		Line:    a.Debug.Line,
	}
}

// less orders keys canonically so an unordered pair has one
// representation.
func (k AccessKey) less(o AccessKey) bool {
	switch {
	case k.Rank != o.Rank:
		return k.Rank < o.Rank
	case k.Epoch != o.Epoch:
		return k.Epoch < o.Epoch
	case k.Type != o.Type:
		return k.Type < o.Type
	case k.AccumOp != o.AccumOp:
		return k.AccumOp < o.AccumOp
	case k.Stack != o.Stack:
		return !k.Stack
	case k.File != o.File:
		return k.File < o.File
	}
	return k.Line < o.Line
}

// RaceKey identifies a race verdict as an unordered pair of access
// identities: which side was stored first depends on notification
// scheduling, so deduplication must not.
type RaceKey struct {
	A, B AccessKey // canonically ordered: !B.less(A)
}

// PairKey builds the canonical key of an unordered access pair.
func PairKey(x, y access.Access) RaceKey {
	a, b := KeyOf(x), KeyOf(y)
	if b.less(a) {
		a, b = b, a
	}
	return RaceKey{A: a, B: b}
}

// DedupKey is the canonical deduplication key of a race verdict. Every
// consumer that suppresses duplicate reports — the differential
// oracle, the fuzz driver — must use this one definition so "the same
// race" means the same thing everywhere.
func DedupKey(r *Race) RaceKey { return PairKey(r.Prev, r.Cur) }
