package itree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

func acc(lo, hi uint64) access.Access {
	return access.Access{Interval: interval.New(lo, hi), Type: access.RMARead}
}

// The query helpers below serve the tests only.

// Height returns the number of levels, leaves included (0 for an empty
// tree).
func (t *Tree) Height() int {
	if t.size == 0 {
		return 0
	}
	return t.levels + 1
}

// Stab returns all stored accesses whose intervals intersect iv, in
// ascending interval order. This is get_intersecting_accesses of
// Algorithm 1.
func (t *Tree) Stab(iv interval.Interval) []access.Access {
	var out []access.Access
	t.VisitStab(iv, func(a access.Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

// FindAt returns the stored access covering addr, if any. Under the
// disjointness invariant there is at most one.
func (t *Tree) FindAt(addr uint64) (access.Access, bool) {
	var found access.Access
	ok := !t.VisitStab(interval.At(addr), func(a access.Access) bool {
		found = a
		return false
	})
	return found, ok
}

// Items returns all stored accesses in ascending interval order.
func (t *Tree) Items() []access.Access {
	out := make([]access.Access, 0, t.size)
	t.InOrder(func(a access.Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("zero tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Stab(interval.New(0, 100)); len(got) != 0 {
		t.Fatalf("stab on empty tree returned %v", got)
	}
	if tr.Delete(interval.At(3)) {
		t.Fatal("delete on empty tree reported success")
	}
	if _, ok := tr.FindAt(0); ok {
		t.Fatal("FindAt on empty tree reported a hit")
	}
	var dst []access.Access
	if _, _, hasL, hasR := tr.StabNeighbors(interval.New(0, 9), &dst); hasL || hasR || len(dst) != 0 {
		t.Fatal("StabNeighbors on empty tree found something")
	}
}

func TestInsertAndStab(t *testing.T) {
	var tr Tree
	tr.Insert(acc(2, 12))
	tr.Insert(acc(20, 25))
	tr.Insert(acc(14, 15))

	got := tr.Stab(interval.At(7))
	if len(got) != 1 || got[0].Interval != interval.New(2, 12) {
		t.Fatalf("Stab([7]) = %v", got)
	}
	if got := tr.Stab(interval.New(13, 13)); len(got) != 0 {
		t.Fatalf("Stab([13]) = %v, want empty", got)
	}
	if got := tr.Stab(interval.New(0, 100)); len(got) != 3 {
		t.Fatalf("Stab(all) = %v", got)
	}
	checkTree(t, &tr)
}

func TestStabOrderedOutput(t *testing.T) {
	var tr Tree
	for _, lo := range []uint64{40, 10, 30, 0, 20} {
		tr.Insert(acc(lo, lo+5))
	}
	got := tr.Stab(interval.New(0, 100))
	for i := 1; i < len(got); i++ {
		if got[i-1].Interval.Compare(got[i].Interval) >= 0 {
			t.Fatalf("stab output not sorted: %v", got)
		}
	}
}

func TestDelete(t *testing.T) {
	var tr Tree
	ivs := []interval.Interval{
		interval.New(0, 5), interval.New(10, 15), interval.New(20, 25),
		interval.New(30, 35), interval.New(40, 45),
	}
	for _, iv := range ivs {
		tr.Insert(access.Access{Interval: iv})
	}
	if !tr.Delete(interval.New(20, 25)) {
		t.Fatal("delete of present interval failed")
	}
	if tr.Delete(interval.New(20, 25)) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete(interval.New(30, 34)) {
		t.Fatal("delete of an interval sharing only its lower bound succeeded")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
	if got := tr.Stab(interval.New(20, 25)); len(got) != 0 {
		t.Fatalf("deleted interval still stabbed: %v", got)
	}
	for _, iv := range []interval.Interval{ivs[0], ivs[1], ivs[3], ivs[4]} {
		if got := tr.Stab(iv); len(got) != 1 {
			t.Fatalf("surviving interval %v not found", iv)
		}
	}
	checkTree(t, &tr)
}

func TestFindAt(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 20))
	if a, ok := tr.FindAt(15); !ok || a.Interval != interval.New(10, 20) {
		t.Fatalf("FindAt(15) = %v, %v", a, ok)
	}
	if _, ok := tr.FindAt(21); ok {
		t.Fatal("FindAt(21) hit")
	}
}

func TestClear(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 1000; lo += 10 {
		tr.Insert(acc(lo, lo+1))
	}
	tr.Clear()
	if tr.Len() != 0 || tr.Height() != 0 || len(tr.Items()) != 0 {
		t.Fatal("Clear did not empty the tree")
	}
	tr.Insert(acc(5, 6))
	if items := tr.Items(); len(items) != 1 || items[0].Interval != interval.New(5, 6) {
		t.Fatalf("Items after Clear and one insert = %v", items)
	}
	checkTree(t, &tr)
}

func TestItems(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 12))
	tr.Insert(acc(0, 2))
	items := tr.Items()
	if len(items) != 2 || items[0].Lo != 0 || items[1].Lo != 10 {
		t.Fatalf("Items() = %v", items)
	}
}

func TestVisitStabEarlyStop(t *testing.T) {
	var tr Tree
	for lo := uint64(0); lo < 100; lo += 10 {
		tr.Insert(acc(lo, lo+5))
	}
	count := 0
	done := tr.VisitStab(interval.New(0, 99), func(access.Access) bool {
		count++
		return count < 3
	})
	if done || count != 3 {
		t.Fatalf("early stop: done=%v count=%d", done, count)
	}
}

// checkTree verifies the B+tree's invariants: every leaf at the same
// depth and non-empty, keys ascending and pairwise disjoint, each
// access in its slot with the bounds the key arrays hold, slot a
// permutation, every inner minimum exact, unused child slots nil, the
// leaf chain in key order, Len and the free list's count exact, every
// inner node below the root taken from the arena, and the arena's
// spares free of children.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	var chain []*leaf
	reached := map[*inner]bool{} // inner nodes below the root
	var walk func(n *inner, d int) uint64
	walk = func(n *inner, d int) uint64 {
		if n.n < 1 || n.n > fanout {
			t.Fatalf("inner node at level %d has %d children", d, n.n)
		}
		for i := 0; i < fanout; i++ {
			leafLevel := d == tr.levels-1
			if i >= n.n || leafLevel {
				if n.kids[i] != nil {
					t.Fatalf("inner node at level %d: stray inner child %d", d, i)
				}
			}
			if i >= n.n || !leafLevel {
				if n.leaves[i] != nil {
					t.Fatalf("inner node at level %d: stray leaf child %d", d, i)
				}
			}
			if i >= n.n {
				continue
			}
			var least uint64
			if leafLevel {
				l := n.leaves[i]
				if l == nil || l.n < 1 {
					t.Fatalf("leaf %d at level %d missing or empty", i, d)
				}
				chain = append(chain, l)
				least = l.lo[0]
			} else {
				reached[n.kids[i]] = true
				least = walk(n.kids[i], d+1)
			}
			if n.min[i] != least {
				t.Fatalf("inner node at level %d: min[%d] = %d, subtree minimum %d", d, i, n.min[i], least)
			}
		}
		return n.min[0]
	}
	if tr.levels == 0 {
		if tr.size != 0 || tr.root.n != 0 {
			t.Fatalf("no levels but Len %d, root with %d children", tr.size, tr.root.n)
		}
	} else {
		if tr.levels > maxLevels {
			t.Fatalf("%d levels exceed maxLevels", tr.levels)
		}
		walk(&tr.root, 0)
	}
	taken := 0
	for _, n := range tr.inners[:min(tr.innerN, len(tr.inners))] {
		if reached[n] {
			taken++
		}
	}
	total := 0
	var prevHi uint64
	for k, l := range chain {
		if (k == 0 && l.prev != nil) || (k > 0 && l.prev != chain[k-1]) {
			t.Fatalf("leaf %d: prev link broken", k)
		}
		if (k == len(chain)-1 && l.next != nil) || (k < len(chain)-1 && l.next != chain[k+1]) {
			t.Fatalf("leaf %d: next link broken", k)
		}
		var seen [fanout]bool
		for _, s := range l.slot {
			if seen[s] {
				t.Fatalf("leaf %d: slot %d listed twice", k, s)
			}
			seen[s] = true
		}
		for i := 0; i < l.n; i++ {
			if l.lo[i] > l.hi[i] || (total > 0 && l.lo[i] <= prevHi) {
				t.Fatalf("leaf %d entry %d: [%d...%d] after upper bound %d", k, i, l.lo[i], l.hi[i], prevHi)
			}
			if a := l.acc[l.slot[i]]; a.Lo != l.lo[i] || a.Hi != l.hi[i] {
				t.Fatalf("leaf %d entry %d: keys [%d...%d], slot holds %v", k, i, l.lo[i], l.hi[i], a.Interval)
			}
			prevHi = l.hi[i]
			total++
		}
	}
	if total != tr.size {
		t.Fatalf("leaves hold %d entries, Len %d", total, tr.size)
	}
	free := 0
	for l := tr.free; l != nil; l = l.next {
		free++
	}
	if free != tr.freeN || free > maxFree {
		t.Fatalf("free list holds %d leaves, count %d, cap %d", free, tr.freeN, maxFree)
	}
	if tr.innerN > len(tr.inners) || taken != len(reached) {
		t.Fatalf("%d inner nodes reached, %d of them taken from the arena; %d of %d taken", len(reached), taken, tr.innerN, len(tr.inners))
	}
	for k, n := range tr.inners[tr.innerN:] {
		if n.kids != [fanout]*inner{} || n.leaves != [fanout]*leaf{} {
			t.Fatalf("spare inner node %d holds children", tr.innerN+k)
		}
	}
	for _, n := range tr.inners[len(tr.inners):cap(tr.inners)] {
		if n != nil {
			t.Fatal("the arena's backing array still holds a trimmed inner node")
		}
	}
}

// TestRandomizedAgainstReference drives the tree with random inserts of
// disjoint intervals, deletes and stabs and compares every answer
// against a brute-force slice reference, while checking the tree's
// invariants.
func TestRandomizedAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var tr Tree
	var ref refTree
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5: // insert
			lo := uint64(r.Intn(5000))
			a := acc(lo, lo+uint64(r.Intn(20)))
			if len(ref.stab(a.Interval)) != 0 {
				continue
			}
			tr.Insert(a)
			ref.insert(a)
		case op < 8 && len(ref) > 0: // delete
			i := r.Intn(len(ref))
			iv := ref[i].Interval
			if !tr.Delete(iv) {
				t.Fatalf("step %d: delete %v failed", step, iv)
			}
			ref = slices.Delete(ref, i, i+1)
		default: // stab
			lo := uint64(r.Intn(5000))
			iv := interval.New(lo, lo+uint64(r.Intn(300)))
			if got, want := tr.Stab(iv), ref.stab(iv); !slices.Equal(got, want) {
				t.Fatalf("step %d: stab %v = %v, want %v", step, iv, got, want)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d ref=%d", step, tr.Len(), len(ref))
		}
		if step%500 == 0 {
			ref.check(t, &tr, step)
		}
	}
	ref.check(t, &tr, -1)
}

func TestStabNeighbors(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 9))   // left neighbour of [10..19]
	tr.Insert(acc(12, 14)) // intersects
	tr.Insert(acc(20, 25)) // right neighbour
	tr.Insert(acc(40, 50)) // unrelated

	var dst []access.Access
	left, right, hasL, hasR := tr.StabNeighbors(interval.New(10, 19), &dst)
	if len(dst) != 1 || dst[0].Interval != interval.New(12, 14) {
		t.Fatalf("intersecting = %v", dst)
	}
	if !hasL || left.Interval != interval.New(0, 9) {
		t.Fatalf("left = %v, %v", left, hasL)
	}
	if !hasR || right.Interval != interval.New(20, 25) {
		t.Fatalf("right = %v, %v", right, hasR)
	}

	// No neighbours when nothing touches the bounds.
	dst = dst[:0]
	_, _, hasL, hasR = tr.StabNeighbors(interval.New(30, 35), &dst)
	if hasL || hasR || len(dst) != 0 {
		t.Fatalf("expected empty result, got dst=%v hasL=%v hasR=%v", dst, hasL, hasR)
	}

	// A stored access starting exactly at the query's lower bound
	// intersects it; the left neighbour is the one before it.
	tr.Insert(acc(15, 19))
	dst = dst[:0]
	left, _, hasL, _ = tr.StabNeighbors(interval.New(20, 21), &dst)
	if len(dst) != 1 || dst[0].Interval != interval.New(20, 25) || !hasL || left.Interval != interval.New(15, 19) {
		t.Fatalf("StabNeighbors([20...21]) = %v, left %v/%v; want [20...25], left [15...19]", dst, left, hasL)
	}
	dst = dst[:0]
	_, _, hasL, _ = tr.StabNeighbors(interval.New(12, 13), &dst)
	if len(dst) != 1 || dst[0].Interval != interval.New(12, 14) || hasL {
		t.Fatalf("StabNeighbors([12...13]) = %v, left %v; nothing ends at 11", dst, hasL)
	}
}

func TestStabNeighborsRandomizedAgainstStab(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var tr Tree
	// Disjoint intervals, as the detector maintains; enough of them to
	// span many leaves.
	lo := uint64(0)
	var all refTree
	for i := 0; i < 3000; i++ {
		lo += uint64(r.Intn(5))
		a := acc(lo, lo+uint64(r.Intn(6)))
		lo = a.Hi + 1
		tr.Insert(a)
		all = append(all, a)
	}
	for trial := 0; trial < 20000; trial++ {
		qlo := uint64(r.Intn(int(lo)))
		q := interval.New(qlo, qlo+uint64(r.Intn(20)))
		var dst []access.Access
		left, right, hasL, hasR := tr.StabNeighbors(q, &dst)
		if want := all.stab(q); !slices.Equal(dst, want) {
			t.Fatalf("trial %d: StabNeighbors(%v) = %v, want %v", trial, q, dst, want)
		}
		li, ri := all.neighbours(q)
		if hasL != (li >= 0) || (hasL && left != all[li]) {
			t.Fatalf("trial %d: left neighbour of %v = %v/%v, want index %d", trial, q, left, hasL, li)
		}
		if hasR != (ri >= 0) || (hasR && right != all[ri]) {
			t.Fatalf("trial %d: right neighbour of %v = %v/%v, want index %d", trial, q, right, hasR, ri)
		}
	}
}

func TestExtendHi(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 19))
	tr.Insert(acc(30, 39))
	if !tr.ExtendHi(interval.New(10, 19), 25) {
		t.Fatal("ExtendHi failed")
	}
	if got := tr.Stab(interval.At(25)); len(got) != 1 || got[0].Interval != interval.New(10, 25) {
		t.Fatalf("Stab after ExtendHi = %v", got)
	}
	checkTree(t, &tr)
	if tr.ExtendHi(interval.New(10, 19), 29) {
		t.Fatal("ExtendHi matched a stale interval")
	}
	if tr.ExtendHi(interval.New(10, 25), 20) {
		t.Fatal("ExtendHi accepted a shrink")
	}
}

func TestExtendLo(t *testing.T) {
	var tr Tree
	tr.Insert(acc(10, 19))
	tr.Insert(acc(30, 39))
	if !tr.ExtendLo(interval.New(30, 39), 25) {
		t.Fatal("ExtendLo failed")
	}
	if got := tr.Stab(interval.At(25)); len(got) != 1 || got[0].Interval != interval.New(25, 39) {
		t.Fatalf("Stab after ExtendLo = %v", got)
	}
	checkTree(t, &tr)
	if tr.ExtendLo(interval.New(25, 39), 28) {
		t.Fatal("ExtendLo accepted a shrink")
	}
	// Items remain ordered after the key change.
	items := tr.Items()
	if len(items) != 2 || items[0].Lo != 10 || items[1].Lo != 25 {
		t.Fatalf("Items = %v", items)
	}
}

// TestExtendLoMovesMinima lowers the first entry of every leaf, which
// is the minimum every inner node above it routes by: a descent to the
// new lower bound must land on the extended entry.
func TestExtendLoMovesMinima(t *testing.T) {
	var tr Tree
	const n = 4000
	for k := uint64(0); k < n; k++ {
		tr.Insert(acc(4*k+2, 4*k+3))
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want an inner level between root and leaves", tr.Height())
	}
	var firsts []interval.Interval
	for l := tr.first(); l != nil; l = l.next {
		firsts = append(firsts, interval.New(l.lo[0], l.hi[0]))
	}
	for _, iv := range firsts {
		if !tr.ExtendLo(iv, iv.Lo-1) {
			t.Fatalf("ExtendLo(%v) failed", iv)
		}
		if a, ok := tr.FindAt(iv.Lo - 1); !ok || a.Interval != interval.New(iv.Lo-1, iv.Hi) {
			t.Fatalf("FindAt(%d) = %v, %v after ExtendLo(%v)", iv.Lo-1, a, ok, iv)
		}
	}
	checkTree(t, &tr)
}

func TestExtendMissingInterval(t *testing.T) {
	var tr Tree
	tr.Insert(acc(0, 5))
	if tr.ExtendHi(interval.New(7, 9), 12) || tr.ExtendLo(interval.New(7, 9), 6) {
		t.Fatal("Extend on a missing interval reported success")
	}
	if tr.ExtendHi(interval.New(0, 4), 6) || tr.ExtendLo(interval.New(0, 6), 0) {
		t.Fatal("Extend on an interval sharing only one bound reported success")
	}
}

// TestAscendingInsertsFillLeaves: an entry bound for the end of a full
// leaf starts the next leaf, so an ascending run, the shape of
// MiniVite's strided accesses, leaves every leaf full rather than half
// empty.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	var tr Tree
	fill(&tr, 64*fanout)
	leaves := 0
	for l := tr.first(); l != nil; l = l.next {
		if l.n != fanout {
			t.Fatalf("leaf %d holds %d entries, want %d", leaves, l.n, fanout)
		}
		leaves++
	}
	if leaves != 64 {
		t.Fatalf("%d leaves, want 64", leaves)
	}
	checkTree(t, &tr)
}

// TestLargeTree grows one tree past 100k entries in a shuffled order,
// deep enough for three inner levels, and checks every answer: each
// entry's own interval and the gap after it through StabNeighbors,
// every address through FindAt in a sample window, and the contents as
// half the entries and then the rest are deleted.
func TestLargeTree(t *testing.T) {
	const n = 100_000
	r := rand.New(rand.NewSource(1))
	// Entry k is [4k, 4k+k%4]: k%4 == 3 touches entry k+1, the rest
	// leave a gap.
	iv := func(k int) interval.Interval { return interval.New(uint64(4*k), uint64(4*k+k%4)) }
	var tr Tree
	for _, k := range r.Perm(n) {
		tr.Insert(access.Access{Interval: iv(k), Rank: k})
	}
	if tr.Len() != n || tr.Height() < 4 {
		t.Fatalf("Len %d, Height %d; want %d entries over three inner levels", tr.Len(), tr.Height(), n)
	}
	checkTree(t, &tr)
	live := make([]bool, n)
	for k := range live {
		live[k] = true
	}
	check := func(stage string) {
		t.Helper()
		var dst []access.Access
		for k := 0; k < n; k++ {
			dst = dst[:0]
			q := iv(k)
			left, right, hasL, hasR := tr.StabNeighbors(q, &dst)
			wantL := k > 0 && live[k-1] && (k-1)%4 == 3
			wantR := k+1 < n && live[k+1] && k%4 == 3
			if !live[k] {
				if len(dst) != 0 {
					t.Fatalf("%s: deleted entry %v still stabbed: %v", stage, q, dst)
				}
			} else if len(dst) != 1 || dst[0].Rank != k || dst[0].Interval != q {
				t.Fatalf("%s: StabNeighbors(%v) = %v", stage, q, dst)
			}
			if hasL != wantL || (hasL && left.Rank != k-1) || hasR != wantR || (hasR && right.Rank != k+1) {
				t.Fatalf("%s: StabNeighbors(%v) neighbours %v/%v %v/%v", stage, q, left, hasL, right, hasR)
			}
			if k%4 != 3 {
				// The gap after entry k touches k and k+1.
				dst = dst[:0]
				gap := interval.New(q.Hi+1, uint64(4*k+3))
				left, right, hasL, hasR = tr.StabNeighbors(gap, &dst)
				if len(dst) != 0 || hasL != live[k] || (hasL && left.Rank != k) ||
					hasR != (k+1 < n && live[k+1]) || (hasR && right.Rank != k+1) {
					t.Fatalf("%s: StabNeighbors(%v) = %v, %v/%v %v/%v", stage, gap, dst, left, hasL, right, hasR)
				}
			}
		}
		for addr := uint64(0); addr < 4*n; addr += 97 {
			k := int(addr / 4)
			a, ok := tr.FindAt(addr)
			if want := live[k] && addr <= iv(k).Hi; ok != want || (ok && a.Rank != k) {
				t.Fatalf("%s: FindAt(%d) = %v, %v", stage, addr, a, ok)
			}
		}
		got := tr.Items()
		i := 0
		for k := 0; k < n; k++ {
			if live[k] {
				if i >= len(got) || got[i].Rank != k {
					t.Fatalf("%s: Items()[%d] is not entry %d", stage, i, k)
				}
				i++
			}
		}
		if i != len(got) || i != tr.Len() {
			t.Fatalf("%s: %d live entries, Items %d, Len %d", stage, i, len(got), tr.Len())
		}
	}
	check("grown")
	// Every other entry: leaves thin out, their first entries change.
	for k := 0; k < n; k += 2 {
		if !tr.Delete(iv(k)) {
			t.Fatalf("Delete(%v) failed", iv(k))
		}
		live[k] = false
	}
	checkTree(t, &tr)
	check("halved")
	// The rest, shuffled: leaves and inner nodes empty and unlink.
	for _, k := range r.Perm(n) {
		if live[k] {
			if !tr.Delete(iv(k)) {
				t.Fatalf("Delete(%v) failed", iv(k))
			}
			live[k] = false
		}
		if k%10_000 == 0 {
			checkTree(t, &tr)
		}
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("emptied tree: Len %d, Height %d", tr.Len(), tr.Height())
	}
	checkTree(t, &tr)
	tr.ReleaseFree()
	checkTree(t, &tr)
	if tr.freeN != freeReserve || len(tr.inners) != innerReserve {
		t.Fatalf("ReleaseFree kept %d leaves and %d inner nodes, want %d and %d", tr.freeN, len(tr.inners), freeReserve, innerReserve)
	}
}

// TestFreeListReuse pins the zero-allocation contract: once the tree
// has grown past one inner level, delete/insert and Clear/refill cycles
// must run entirely off the per-tree free list and inner-node arena,
// and ReleaseFree keeps enough of both for the refill.
func TestFreeListReuse(t *testing.T) {
	var tr Tree
	const n = 64 * fanout
	fill := func() {
		for i := 0; i < n; i++ {
			tr.Insert(acc(uint64(i*10), uint64(i*10+5)))
		}
	}
	fill() // warm-up: grow the tree once, paying its allocations
	for _, cycle := range []struct {
		name string
		run  func()
	}{
		{"delete/insert", func() {
			for i := 0; i < n; i++ {
				if !tr.Delete(interval.New(uint64(i*10), uint64(i*10+5))) {
					t.Fatal("warm interval missing")
				}
			}
			fill()
		}},
		{"Clear/ReleaseFree/refill", func() {
			tr.Clear()
			tr.ReleaseFree()
			fill()
		}},
	} {
		if got := testing.AllocsPerRun(20, cycle.run); got != 0 {
			t.Fatalf("%s cycle allocated %.1f per run, want 0", cycle.name, got)
		}
	}
	if tr.Len() != n || tr.Height() < 3 {
		t.Fatalf("tree ended with %d nodes over %d levels, want %d over 3 or more", tr.Len(), tr.Height(), n)
	}
	checkTree(t, &tr)
	tr.Clear()
	checkTree(t, &tr)
}

// BenchmarkStabNeighbors times the no-overlap neighbour query of
// Algorithm 1's hot path: random queries inside the gaps between 11k
// (replay-bin's hot owner) or 100k disjoint entries inserted in random
// order, some of them touching a neighbour.
func BenchmarkStabNeighbors(b *testing.B) {
	for _, n := range []int{11_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			var tr Tree
			for _, k := range r.Perm(n) {
				tr.Insert(acc(uint64(8*k), uint64(8*k+3)))
			}
			qs := make([]interval.Interval, 1<<12)
			for i := range qs {
				gap := uint64(8*r.Intn(n) + 4) // [gap, gap+3] lies between two entries
				lo := gap + uint64(r.Intn(4))
				qs[i] = interval.New(lo, lo+uint64(r.Intn(int(gap+4-lo))))
			}
			var dst []access.Access
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				tr.StabNeighbors(qs[i&(len(qs)-1)], &dst)
			}
		})
	}
}
