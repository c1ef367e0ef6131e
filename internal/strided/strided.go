// Package strided implements regular sections: compressed
// representations of arithmetic access sequences (base + k·stride,
// k = 0..count-1, each of a fixed width). They realise the paper's
// §6(3) discussion — merging accesses that are not adjacent, as
// MiniVite's strided attribute accesses are, "by using polyhedra to
// abstract memory regions" (Ketterlin & Clauss). A regular section is
// the one-dimensional special case of such a polyhedron, sufficient for
// the strided single-field patterns the paper observed.
package strided

import (
	"fmt"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

// Section is a compressed run of accesses at Base, Base+Stride,
// Base+2·Stride, ..., each covering Width bytes, all sharing one access
// identity. Stride must be > Width-1... strictly: elements must not
// overlap each other, i.e. Stride >= Width; Count >= 1.
type Section struct {
	Base   uint64
	Stride uint64
	Width  uint64
	Count  uint64
	// Acc carries the shared identity (type, rank, epoch, debug,
	// accumulate op); its Interval field is ignored.
	Acc access.Access
}

// New starts a section from two accesses establishing the stride. Both
// must have equal width and identity; second.Lo must exceed first.Lo by
// at least the width (elements must not overlap).
func New(first, second access.Access) (Section, error) {
	w := first.Interval.Len()
	if second.Interval.Len() != w {
		return Section{}, fmt.Errorf("strided: widths differ: %v vs %v", first.Interval, second.Interval)
	}
	if second.Lo <= first.Lo {
		return Section{}, fmt.Errorf("strided: non-increasing bases %d, %d", first.Lo, second.Lo)
	}
	stride := second.Lo - first.Lo
	if stride < w {
		return Section{}, fmt.Errorf("strided: stride %d smaller than width %d", stride, w)
	}
	return Section{Base: first.Lo, Stride: stride, Width: w, Count: 2, Acc: first}, nil
}

// Next returns the interval the section's next element would cover.
func (s Section) Next() interval.Interval {
	return interval.Span(s.Base+s.Count*s.Stride, s.Width)
}

// CanAppend reports whether a is exactly the section's next element
// with the same identity.
func (s Section) CanAppend(a access.Access) bool {
	return a.Interval == s.Next() && sameIdentity(s.Acc, a)
}

// Append extends the section by one element; call only after CanAppend.
func (s *Section) Append() { s.Count++ }

// Bounds returns the smallest interval covering every element.
func (s Section) Bounds() interval.Interval {
	return interval.New(s.Base, s.Base+(s.Count-1)*s.Stride+s.Width-1)
}

// Elements returns the number of compressed accesses.
func (s Section) Elements() uint64 { return s.Count }

// Overlap returns the sub-range of elements whose bytes intersect iv,
// as the half-open element index range [from, to). An empty range means
// no element intersects iv.
func (s Section) Overlap(iv interval.Interval) (from, to uint64) {
	if !s.Bounds().Intersects(iv) {
		return 0, 0
	}
	// Element k covers [Base+k·Stride, Base+k·Stride+Width-1]. It
	// intersects iv iff Base+k·Stride <= iv.Hi and
	// Base+k·Stride+Width-1 >= iv.Lo.
	var lo uint64
	if iv.Lo > s.Base+s.Width-1 {
		// First k with Base+k·Stride+Width-1 >= iv.Lo.
		lo = (iv.Lo - s.Base - (s.Width - 1) + s.Stride - 1) / s.Stride
	}
	hi := (iv.Hi - s.Base) / s.Stride // last k with Base+k·Stride <= iv.Hi
	if hi >= s.Count {
		hi = s.Count - 1
	}
	if lo > hi {
		return 0, 0
	}
	// The indices bound candidates by alignment; verify the endpoints
	// actually intersect (they do by construction, but keep the
	// invariant explicit for the property tests).
	return lo, hi + 1
}

// Intersects reports whether any element's bytes intersect iv.
func (s Section) Intersects(iv interval.Interval) bool {
	from, to := s.Overlap(iv)
	return from < to
}

// Element returns the interval of element k.
func (s Section) Element(k uint64) interval.Interval {
	return interval.Span(s.Base+k*s.Stride, s.Width)
}

// Representative builds the stored-access view of element k, for race
// checks against a new access.
func (s Section) Representative(k uint64) access.Access {
	a := s.Acc
	a.Interval = s.Element(k)
	return a
}

// String renders the section like "[base:+stride x count (w bytes), TYPE]".
func (s Section) String() string {
	return fmt.Sprintf("[%d:+%d x %d (%d bytes), %s]", s.Base, s.Stride, s.Count, s.Width, s.Acc.Type)
}

func sameIdentity(a, b access.Access) bool {
	return a.Type == b.Type &&
		a.Debug == b.Debug &&
		a.Rank == b.Rank &&
		a.Epoch == b.Epoch &&
		a.Stack == b.Stack &&
		a.AccumOp == b.AccumOp
}
