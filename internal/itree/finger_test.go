package itree

import (
	"math"
	"slices"
	"sort"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

// refTree is the sorted-slice reference FuzzTreeOps checks the tree
// against. It holds disjoint intervals, as Algorithm 1 keeps the store.
type refTree []access.Access

func (r refTree) stab(iv interval.Interval) []access.Access {
	var out []access.Access
	for _, a := range r {
		if a.Intersects(iv) {
			out = append(out, a)
		}
	}
	return out
}

// neighbours returns the stored accesses ending at iv.Lo-1 and starting
// at iv.Hi+1.
func (r refTree) neighbours(iv interval.Interval) (left, right int) {
	left, right = -1, -1
	for i, a := range r {
		if iv.Lo > 0 && a.Hi == iv.Lo-1 {
			left = i
		}
		if iv.Hi < math.MaxUint64 && a.Lo == iv.Hi+1 {
			right = i
		}
	}
	return left, right
}

func (r *refTree) insert(a access.Access) {
	*r = append(*r, a)
	sort.Slice(*r, func(i, j int) bool { return (*r)[i].Interval.Compare((*r)[j].Interval) < 0 })
}

// check compares the tree's contents with the reference and verifies
// the AVL invariants.
func (r refTree) check(t *testing.T, tr *Tree, step int) {
	t.Helper()
	if items := tr.Items(); tr.Len() != len(r) || !slices.Equal(items, r) {
		t.Fatalf("step %d: tree holds %v (Len %d), reference %v", step, items, tr.Len(), r)
	}
	checkAVL(t, tr)
}

// fuzzInterval decodes an interval from three bytes: the low address
// sits at the bottom of the address space, or at its top when op's high
// bit is set, so both ends' overflow edges are reachable.
func fuzzInterval(op, lo, n byte) interval.Interval {
	base := uint64(lo)
	if op&0x80 != 0 {
		base = math.MaxUint64 - 270 + uint64(lo)
	}
	return interval.New(base, base+uint64(n%16))
}

// FuzzTreeOps drives the tree with the operation mix Algorithm 1
// produces — a neighbour stab followed by an insert or a boundary
// extension that reuses its finger — interleaved with finger misses,
// deletes, clears and free-list releases, and checks every answer and
// the tree's invariants against a sorted-slice reference.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 0, 15, 3, 0, 0, 5, 4, 1, 0, 20, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0x80, 255, 15, 0, 0x80, 240, 14, 1, 3, 0, 0, 0})
	f.Add([]byte{2, 50, 5, 0, 0, 40, 9, 3, 2, 45, 2, 0, 0, 40, 9, 0, 4, 0, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 3, 1, 0, 0, 2, 0, 1, 3, 0, 0, 0, 5, 0, 0, 1, 0, 9, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Tree
		var ref refTree
		var dst []access.Access
		var last interval.Interval // the last StabNeighbors query
		for step := 0; len(data) >= 4; step++ {
			op, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			a := access.Access{Interval: fuzzInterval(op, b1, b2), Type: access.RMAWrite, Rank: int(b3 >> 2)}
			switch op & 0x7f % 6 {
			case 0, 1:
				dst = dst[:0]
				last = a.Interval
				left, right, hasL, hasR := tr.StabNeighbors(a.Interval, &dst)
				if want := ref.stab(a.Interval); !slices.Equal(dst, want) {
					t.Fatalf("step %d: StabNeighbors(%v) found %v, reference %v", step, a.Interval, dst, want)
				}
				li, ri := ref.neighbours(a.Interval)
				if hasL != (li >= 0) || (hasL && left != ref[li]) {
					t.Fatalf("step %d: StabNeighbors(%v) left %v/%v, reference index %d", step, a.Interval, left, hasL, li)
				}
				if hasR != (ri >= 0) || (hasR && right != ref[ri]) {
					t.Fatalf("step %d: StabNeighbors(%v) right %v/%v, reference index %d", step, a.Interval, right, hasR, ri)
				}
				if len(dst) != 0 {
					break
				}
				switch b3 % 4 {
				case 0:
					tr.Insert(a)
					ref.insert(a)
				case 1:
					if hasL {
						if !tr.ExtendHi(left.Interval, a.Hi) {
							t.Fatalf("step %d: ExtendHi(%v) of the left neighbour failed", step, left.Interval)
						}
						ref[li].Hi = a.Hi
					}
				case 2:
					if hasR {
						if !tr.ExtendLo(right.Interval, a.Lo) {
							t.Fatalf("step %d: ExtendLo(%v) of the right neighbour failed", step, right.Interval)
						}
						ref[ri].Lo = a.Lo
					}
				}
			case 2:
				// An insert with no stab of its own: of another interval
				// than the last stab's, or of that one after whatever ran
				// since the stab.
				if b3%2 == 1 {
					a.Interval = last
				}
				if len(ref.stab(a.Interval)) == 0 {
					tr.Insert(a)
					ref.insert(a)
				}
			case 3:
				if len(ref) == 0 {
					if tr.Delete(a.Interval) {
						t.Fatalf("step %d: Delete(%v) on an empty tree succeeded", step, a.Interval)
					}
					break
				}
				i := int(b1) % len(ref)
				if !tr.Delete(ref[i].Interval) {
					t.Fatalf("step %d: Delete(%v) of a stored interval failed", step, ref[i].Interval)
				}
				ref = append(ref[:i], ref[i+1:]...)
			case 4:
				if b3%2 == 0 {
					tr.Clear()
					ref = ref[:0]
				} else {
					tr.ReleaseFree()
				}
			case 5:
				// An extension with no stab of its own, kept disjoint.
				if len(ref) == 0 {
					break
				}
				i := int(b1) % len(ref)
				iv := ref[i].Interval
				if b3%2 == 0 {
					hi := iv.Hi + uint64(b2%4)
					if hi < iv.Hi || (i+1 < len(ref) && hi >= ref[i+1].Lo) {
						break
					}
					if !tr.ExtendHi(iv, hi) {
						t.Fatalf("step %d: ExtendHi(%v, %d) failed", step, iv, hi)
					}
					ref[i].Hi = hi
				} else {
					lo := iv.Lo - uint64(b2%4)
					if lo > iv.Lo || (i > 0 && lo <= ref[i-1].Hi) {
						break
					}
					if !tr.ExtendLo(iv, lo) {
						t.Fatalf("step %d: ExtendLo(%v, %d) failed", step, iv, lo)
					}
					ref[i].Lo = lo
				}
			}
			ref.check(t, &tr, step)
		}
	})
}

// stabThenInsert runs the analyzer's fast path shape with a mutation in
// between: the mutation must drop the finger StabNeighbors left, so
// the insert descends again and lands where the current tree orders it.
func stabThenInsert(t *testing.T, tr *Tree, a access.Access, between func()) {
	t.Helper()
	var dst []access.Access
	tr.StabNeighbors(a.Interval, &dst)
	if len(dst) != 0 || !tr.fg.ok {
		t.Fatalf("StabNeighbors(%v) found %v and left no finger", a.Interval, dst)
	}
	between()
	if tr.fg.ok {
		t.Fatal("the mutation between StabNeighbors and Insert kept the finger")
	}
	tr.Insert(a)
	checkAVL(t, tr)
}

func TestFingerDroppedByDelete(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 160; lo += 10 {
		tr.Insert(acc(lo, lo+4))
	}
	// [45...47] descends through [40...44], which the delete unlinks
	// and recycles.
	stabThenInsert(t, &tr, acc(45, 47), func() {
		if !tr.Delete(interval.New(40, 44)) {
			t.Fatal("Delete([40...44]) failed")
		}
	})
	if got := tr.Stab(interval.New(40, 49)); len(got) != 1 || got[0].Interval != interval.New(45, 47) {
		t.Fatalf("Stab([40...49]) = %v, want only [45...47]", got)
	}
	if tr.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tr.Len())
	}
}

func TestFingerDroppedByClear(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 70; lo += 10 {
		tr.Insert(acc(lo, lo+4))
	}
	// Clear recycles every node on the recorded path.
	stabThenInsert(t, &tr, acc(66, 67), tr.Clear)
	if items := tr.Items(); len(items) != 1 || tr.Len() != 1 || items[0].Interval != interval.New(66, 67) {
		t.Fatalf("Items = %v, Len = %d; want only [66...67]", items, tr.Len())
	}
}

func TestFingerDroppedByExtend(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 9))
	tr.Insert(acc(20, 29))
	// ExtendLo moves the right neighbour's key below the query, so the
	// slot the stab ended on, left of [20...29], is no longer in order.
	stabThenInsert(t, &tr, acc(15, 19), func() {
		if !tr.ExtendLo(interval.New(20, 29), 12) {
			t.Fatal("ExtendLo failed")
		}
	})
	// ExtendHi keeps every key, but still ends the finger's life.
	stabThenInsert(t, &tr, acc(40, 49), func() {
		if !tr.ExtendHi(interval.New(0, 9), 10) {
			t.Fatal("ExtendHi failed")
		}
	})
	var got []interval.Interval
	for _, a := range tr.Items() {
		got = append(got, a.Interval)
	}
	if want := []interval.Interval{interval.New(0, 10), interval.New(12, 29), interval.New(15, 19), interval.New(40, 49)}; !slices.Equal(got, want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
}

func TestFingerDroppedByOtherInsert(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 70; lo += 10 {
		tr.Insert(acc(lo, lo+4))
	}
	// The other insert lands on the slot the stab ended on and rotates.
	stabThenInsert(t, &tr, acc(66, 67), func() { tr.Insert(acc(65, 65)) })
	// The other insert belongs elsewhere: it must not take the slot.
	stabThenInsert(t, &tr, acc(75, 77), func() { tr.Insert(acc(5, 5)) })
	var los []uint64
	for _, a := range tr.Items() {
		los = append(los, a.Lo)
	}
	if want := []uint64{0, 5, 10, 20, 30, 40, 50, 60, 65, 66, 75}; !slices.Equal(los, want) {
		t.Fatalf("lower bounds %v, want %v", los, want)
	}
}

// TestFingerNeighbourExtension covers the merge fast path: the
// extension of a neighbour StabNeighbors returned reuses its path and
// keeps the augmentation exact.
func TestFingerNeighbourExtension(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 640; lo += 10 {
		tr.Insert(acc(lo, lo+4))
	}
	for lo := uint64(5); lo < 640; lo += 10 {
		var dst []access.Access
		left, right, hasL, hasR := tr.StabNeighbors(interval.New(lo, lo+2), &dst)
		if len(dst) != 0 || !hasL || hasR || left.Hi != lo-1 {
			t.Fatalf("StabNeighbors([%d...%d]) = %v, left %v/%v, right %v/%v", lo, lo+2, dst, left, hasL, right, hasR)
		}
		if !tr.ExtendHi(left.Interval, lo+2) {
			t.Fatalf("ExtendHi(%v) failed", left.Interval)
		}
		checkAVL(t, &tr)
	}
	for lo := uint64(8); lo < 630; lo += 10 {
		var dst []access.Access
		_, right, _, hasR := tr.StabNeighbors(interval.New(lo, lo+1), &dst)
		if len(dst) != 0 || !hasR {
			t.Fatalf("StabNeighbors([%d...%d]) = %v, right %v/%v", lo, lo+1, dst, right, hasR)
		}
		if !tr.ExtendLo(right.Interval, lo) {
			t.Fatalf("ExtendLo(%v) failed", right.Interval)
		}
		checkAVL(t, &tr)
	}
	if got := tr.Stab(interval.New(0, 639)); len(got) != 64 {
		t.Fatalf("%d nodes after the extensions, want 64", len(got))
	}
}

// TestEqualIntervalsInsertRight pins the multiset order: a twin is
// placed right of every stored access with the same interval, so equal
// intervals walk in insertion order.
func TestEqualIntervalsInsertRight(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 100; lo += 10 {
		tr.Insert(acc(lo, lo+4))
	}
	for rank := 1; rank <= 5; rank++ {
		a := acc(50, 54)
		a.Rank = rank
		var dst []access.Access
		tr.StabNeighbors(a.Interval, &dst)
		tr.Insert(a)
		checkAVL(t, &tr)
	}
	got := tr.Stab(interval.At(52))
	if len(got) != 6 {
		t.Fatalf("Stab([52]) = %v, want six twins", got)
	}
	for i, a := range got {
		if a.Rank != i {
			t.Fatalf("twins walk as ranks %v, want insertion order", got)
		}
	}
}
