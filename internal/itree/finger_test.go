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

// stab returns the run of stored accesses intersecting iv: they start
// after the last access ending before iv.Lo.
func (r refTree) stab(iv interval.Interval) []access.Access {
	i := sort.Search(len(r), func(i int) bool { return r[i].Hi >= iv.Lo })
	j := i
	for j < len(r) && r[j].Lo <= iv.Hi {
		j++
	}
	if i == j {
		return nil
	}
	return r[i:j]
}

// neighbours returns the indices of the stored accesses ending at
// iv.Lo-1 and starting at iv.Hi+1, or -1.
func (r refTree) neighbours(iv interval.Interval) (left, right int) {
	left, right = -1, -1
	if i := sort.Search(len(r), func(i int) bool { return r[i].Hi >= iv.Lo }); iv.Lo > 0 && i > 0 && r[i-1].Hi == iv.Lo-1 {
		left = i - 1
	}
	if i := sort.Search(len(r), func(i int) bool { return r[i].Lo > iv.Hi }); iv.Hi < math.MaxUint64 && i < len(r) && r[i].Lo == iv.Hi+1 {
		right = i
	}
	return left, right
}

func (r *refTree) insert(a access.Access) {
	i := sort.Search(len(*r), func(i int) bool { return (*r)[i].Lo > a.Lo })
	*r = slices.Insert(*r, i, a)
}

// check compares the tree's contents with the reference and verifies
// the tree's invariants.
func (r refTree) check(t *testing.T, tr *Tree, step int) {
	t.Helper()
	if items := tr.Items(); tr.Len() != len(r) || !slices.Equal(items, r) {
		t.Fatalf("step %d: tree holds %v (Len %d), reference %v", step, items, tr.Len(), r)
	}
	checkTree(t, tr)
}

// fuzzInterval decodes an interval from three bytes: the low address
// sits at the bottom of the address space, or at its top when op's high
// bit is set, so both ends' overflow edges are reachable; a nonzero high
// nibble of n moves it into the region a fill of b1 = n>>4 - 1 covers,
// among trees of many leaves.
func fuzzInterval(op, lo, n byte) interval.Interval {
	base := uint64(lo)
	if op&0x80 != 0 {
		base = math.MaxUint64 - 270 + uint64(lo)
	} else if r := n >> 4; r != 0 {
		base = uint64(r)<<12 + 4*uint64(lo)
	}
	return interval.New(base, base+uint64(n%16))
}

// maxFuzzLen stops FuzzTreeOps's fills: 4,096 entries are 128 leaves
// when filled in ascending order, past several inner splits.
const maxFuzzLen = 1 << 12

// fillOp is the FuzzTreeOps operation that inserts a run of b2+1
// accesses, spaced 2+b3%3 addresses apart from address (b1+1)<<12 on,
// so a few operations grow the tree past a leaf and then past an inner
// node.
func fillOp(b1, b2, b3 byte) []byte { return []byte{6, b1, b2, b3} }

// fuzzSeeds returns the seed inputs beyond the hand-written ones: a
// tree grown by fills past an inner split, then worked over by runs of
// deletes that empty leaves, extensions of leaves' first entries, and
// stab/insert pairs around them.
func fuzzSeeds() [][]byte {
	var grow []byte
	for i := 0; i < 6; i++ {
		grow = append(grow, fillOp(byte(i), 255, 1)...)
	}
	thin := slices.Clone(grow)
	for i := 0; i < 50; i++ {
		// Delete runs of 32 entries from index 17*i on.
		thin = append(thin, 3, byte(17*i), 31, 1)
	}
	extend := slices.Clone(grow)
	for i := 0; i < 96; i++ {
		// Lower the bound of entry 16*i; every other one is a leaf's
		// first, since ascending fills leave full leaves.
		extend = append(extend, 5, byte(i), 1, 1)
	}
	inside := slices.Clone(grow)
	for i := 0; i < 64; i++ {
		// Stabs of the gaps in the first fill (stride 3 from 4096),
		// each followed by an insert or a neighbour extension.
		inside = append(inside, 0, byte(3*i)+2, 0x10, byte(i%3))
	}
	return [][]byte{grow, thin, extend, inside}
}

// FuzzTreeOps drives the tree with the operation mix Algorithm 1
// produces — a neighbour stab, or the batch path's plain emptiness
// probe, followed by an insert or a boundary extension that reuses its
// finger — interleaved with finger misses,
// single and run deletes, bulk fills that split leaves and inner nodes,
// clears and free-list releases, and checks every answer and the
// tree's invariants against a sorted-slice reference.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 0, 15, 3, 0, 0, 5, 4, 1, 0, 20, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0x80, 255, 15, 0, 0x80, 240, 14, 1, 3, 0, 0, 0})
	f.Add([]byte{2, 50, 5, 0, 0, 40, 9, 3, 2, 45, 2, 0, 0, 40, 9, 0, 4, 0, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 3, 1, 0, 0, 2, 0, 1, 3, 0, 0, 0, 5, 0, 0, 1, 0, 9, 2, 2})
	f.Add([]byte{0, 10, 4, 0x10, 0, 15, 3, 0x11, 0, 20, 2, 0x10, 0, 16, 3, 0x12, 2, 0, 0, 1})
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Tree
		var ref refTree
		var dst []access.Access
		var last interval.Interval // the last StabNeighbors query
		for step := 0; len(data) >= 4; step++ {
			op, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			a := access.Access{Interval: fuzzInterval(op, b1, b2), Type: access.RMAWrite, Rank: int(b3 >> 2)}
			switch op & 0x7f % 7 {
			case 0, 1:
				dst = dst[:0]
				last = a.Interval
				li, ri := ref.neighbours(a.Interval)
				if b3&0x10 == 0 {
					left, right, hasL, hasR := tr.StabNeighbors(a.Interval, &dst)
					if hasL != (li >= 0) || (hasL && left != ref[li]) {
						t.Fatalf("step %d: StabNeighbors(%v) left %v/%v, reference index %d", step, a.Interval, left, hasL, li)
					}
					if hasR != (ri >= 0) || (hasR && right != ref[ri]) {
						t.Fatalf("step %d: StabNeighbors(%v) right %v/%v, reference index %d", step, a.Interval, right, hasR, ri)
					}
				} else {
					// The batch path's emptiness probe: a plain stab
					// followed by the same mutations.
					tr.VisitStab(a.Interval, func(x access.Access) bool {
						dst = append(dst, x)
						return true
					})
				}
				if want := ref.stab(a.Interval); !slices.Equal(dst, want) {
					t.Fatalf("step %d: stab of %v found %v, reference %v", step, a.Interval, dst, want)
				}
				if len(dst) != 0 {
					break
				}
				switch b3 % 4 {
				case 0:
					tr.Insert(a)
					ref.insert(a)
				case 1:
					if li >= 0 {
						if !tr.ExtendHi(ref[li].Interval, a.Hi) {
							t.Fatalf("step %d: ExtendHi(%v) of the left neighbour failed", step, ref[li].Interval)
						}
						ref[li].Hi = a.Hi
					}
				case 2:
					if ri >= 0 {
						if !tr.ExtendLo(ref[ri].Interval, a.Lo) {
							t.Fatalf("step %d: ExtendLo(%v) of the right neighbour failed", step, ref[ri].Interval)
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
				// One entry, or with b3 odd a run of up to 32 from index
				// b1 on: enough to empty a leaf.
				i, n := int(b1)%len(ref), 1
				if b3%2 == 1 {
					n = min(int(b2%32)+1, len(ref)-i)
				}
				for _, d := range ref[i : i+n] {
					if !tr.Delete(d.Interval) {
						t.Fatalf("step %d: Delete(%v) of a stored interval failed", step, d.Interval)
					}
				}
				ref = slices.Delete(ref, i, i+n)
			case 4:
				if b3%2 == 0 {
					tr.Clear()
					ref = ref[:0]
				} else {
					tr.ReleaseFree()
				}
			case 5:
				// An extension with no stab of its own, kept disjoint; b1
				// indexes the entries in steps of 16 when b3 is odd, so
				// runs of fills reach leaves' first entries.
				if len(ref) == 0 {
					break
				}
				i := int(b1) % len(ref)
				if b3%2 == 1 {
					i = 16 * int(b1) % len(ref)
				}
				iv := ref[i].Interval
				if b3%4 < 2 {
					lo := iv.Lo - uint64(b2%4)
					if lo > iv.Lo || (i > 0 && lo <= ref[i-1].Hi) {
						break
					}
					if !tr.ExtendLo(iv, lo) {
						t.Fatalf("step %d: ExtendLo(%v, %d) failed", step, iv, lo)
					}
					ref[i].Lo = lo
				} else {
					hi := iv.Hi + uint64(b2%4)
					if hi < iv.Hi || (i+1 < len(ref) && hi >= ref[i+1].Lo) {
						break
					}
					if !tr.ExtendHi(iv, hi) {
						t.Fatalf("step %d: ExtendHi(%v, %d) failed", step, iv, hi)
					}
					ref[i].Hi = hi
				}
			case 6:
				if len(ref) >= maxFuzzLen {
					break // the reference's inserts and checks are linear
				}
				stride := 2 + uint64(b3%3)
				for k, lo := 0, (uint64(b1)+1)<<12; k <= int(b2); k, lo = k+1, lo+stride {
					a.Interval = interval.New(lo, lo+uint64(k)%stride/2)
					if len(ref.stab(a.Interval)) == 0 {
						tr.Insert(a)
						ref.insert(a)
					}
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
	checkTree(t, tr)
}

// fill inserts n accesses [10k, 10k+4] in ascending order, which fills
// each leaf before it starts the next.
func fill(tr *Tree, n int) {
	for k := uint64(0); k < uint64(n); k++ {
		tr.Insert(acc(10*k, 10*k+4))
	}
}

func TestFingerDroppedByDelete(t *testing.T) {
	var tr Tree
	fill(&tr, fanout+16)
	// [45...47] would go into the first leaf, which the deletes empty,
	// unlink and recycle.
	stabThenInsert(t, &tr, acc(45, 47), func() {
		for k := uint64(0); k < fanout; k++ {
			if !tr.Delete(interval.New(10*k, 10*k+4)) {
				t.Fatalf("Delete of entry %d failed", k)
			}
		}
	})
	if got := tr.Stab(interval.New(40, 49)); len(got) != 1 || got[0].Interval != interval.New(45, 47) {
		t.Fatalf("Stab([40...49]) = %v, want only [45...47]", got)
	}
	if tr.Len() != 17 {
		t.Fatalf("Len = %d, want 17", tr.Len())
	}
}

func TestFingerDroppedByClear(t *testing.T) {
	var tr Tree
	fill(&tr, 7)
	// Clear recycles the leaf the finger points into.
	stabThenInsert(t, &tr, acc(66, 67), tr.Clear)
	if items := tr.Items(); len(items) != 1 || tr.Len() != 1 || items[0].Interval != interval.New(66, 67) {
		t.Fatalf("Items = %v, Len = %d; want only [66...67]", items, tr.Len())
	}
}

func TestFingerDroppedByExtend(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 9))
	tr.Insert(acc(20, 29))
	// ExtendLo moves the right neighbour's bound, and with it the
	// leaf's layout the finger recorded.
	stabThenInsert(t, &tr, acc(12, 15), func() {
		if !tr.ExtendLo(interval.New(20, 29), 16) {
			t.Fatal("ExtendLo failed")
		}
	})
	// ExtendHi keeps every lower bound, but still ends the finger's life.
	stabThenInsert(t, &tr, acc(40, 49), func() {
		if !tr.ExtendHi(interval.New(0, 9), 10) {
			t.Fatal("ExtendHi failed")
		}
	})
	var got []interval.Interval
	for _, a := range tr.Items() {
		got = append(got, a.Interval)
	}
	if want := []interval.Interval{interval.New(0, 10), interval.New(12, 15), interval.New(16, 29), interval.New(40, 49)}; !slices.Equal(got, want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
}

func TestFingerDroppedByOtherInsert(t *testing.T) {
	var tr Tree
	fill(&tr, 7)
	// The other insert takes the position the stab ended on.
	stabThenInsert(t, &tr, acc(66, 67), func() { tr.Insert(acc(65, 65)) })
	// The other insert belongs elsewhere: it must not take the position.
	stabThenInsert(t, &tr, acc(75, 77), func() { tr.Insert(acc(5, 5)) })
	// The other insert splits the full leaf the stab ended in.
	fill32 := func() {
		for k := uint64(0); tr.Len() < fanout; k++ {
			tr.Insert(acc(1000+2*k, 1000+2*k))
		}
	}
	stabThenInsert(t, &tr, acc(7, 8), fill32)
	var los []uint64
	for _, a := range tr.Items()[:12] {
		los = append(los, a.Lo)
	}
	if want := []uint64{0, 5, 7, 10, 20, 30, 40, 50, 60, 65, 66, 75}; !slices.Equal(los, want) {
		t.Fatalf("lower bounds %v, want %v", los, want)
	}
}

// TestFingerAtLeafEdges: a split leaves stale copies of the moved
// entries in the left leaf's unused slots. A query whose slot is the
// end of that leaf has its right neighbour in the next leaf, and the
// extension must change that entry, not the stale copy; a query whose
// slot is a leaf's front extends the entry before it in place.
func TestFingerAtLeafEdges(t *testing.T) {
	var tr Tree
	fill(&tr, fanout)
	tr.Insert(acc(195, 196)) // an even split: entries 0-15 left, 16-31 right
	var dst []access.Access
	_, right, _, hasR := tr.StabNeighbors(interval.New(155, 159), &dst)
	if len(dst) != 0 || !hasR || right.Interval != interval.New(160, 164) {
		t.Fatalf("StabNeighbors([155...159]) = %v, right %v/%v", dst, right, hasR)
	}
	if !tr.ExtendLo(right.Interval, 155) {
		t.Fatal("ExtendLo of the next leaf's first entry failed")
	}
	checkTree(t, &tr)
	if a, ok := tr.FindAt(156); !ok || a.Interval != interval.New(155, 164) {
		t.Fatalf("FindAt(156) = %v, %v; want [155...164]", a, ok)
	}
	left, _, hasL, _ := tr.StabNeighbors(interval.New(165, 168), &dst)
	if !hasL || left.Interval != interval.New(155, 164) || !tr.ExtendHi(left.Interval, 168) {
		t.Fatalf("extending the left neighbour %v/%v of [165...168] failed", left, hasL)
	}
	checkTree(t, &tr)
	// A finger only serves the interval stored there: same lower
	// bound, other upper bound, and the extension misses.
	left, _, _, _ = tr.StabNeighbors(interval.New(169, 169), &dst)
	if tr.ExtendHi(interval.New(left.Lo, left.Hi-1), 169) {
		t.Fatalf("ExtendHi of [%d...%d], which is not stored, succeeded", left.Lo, left.Hi-1)
	}
	checkTree(t, &tr)
}

// TestFingerNeighbourExtension covers the merge fast path: the
// extension of a neighbour StabNeighbors returned reuses its position,
// including a right neighbour that is its leaf's first entry and one
// in the next leaf.
func TestFingerNeighbourExtension(t *testing.T) {
	var tr Tree
	fill(&tr, 640)
	for lo := uint64(5); lo < 6400; lo += 10 {
		var dst []access.Access
		left, right, hasL, hasR := tr.StabNeighbors(interval.New(lo, lo+2), &dst)
		if len(dst) != 0 || !hasL || hasR || left.Hi != lo-1 {
			t.Fatalf("StabNeighbors([%d...%d]) = %v, left %v/%v, right %v/%v", lo, lo+2, dst, left, hasL, right, hasR)
		}
		if !tr.ExtendHi(left.Interval, lo+2) {
			t.Fatalf("ExtendHi(%v) failed", left.Interval)
		}
		checkTree(t, &tr)
	}
	for lo := uint64(8); lo < 6390; lo += 10 {
		var dst []access.Access
		_, right, _, hasR := tr.StabNeighbors(interval.New(lo, lo+1), &dst)
		if len(dst) != 0 || !hasR {
			t.Fatalf("StabNeighbors([%d...%d]) = %v, right %v/%v", lo, lo+1, dst, right, hasR)
		}
		if !tr.ExtendLo(right.Interval, lo) {
			t.Fatalf("ExtendLo(%v) failed", right.Interval)
		}
		checkTree(t, &tr)
	}
	if got := tr.Stab(interval.New(0, 6399)); len(got) != 640 {
		t.Fatalf("%d nodes after the extensions, want 640", len(got))
	}
}
