// Package itree implements the balanced search tree the paper's new
// insertion algorithm stores memory accesses in (§4.2: "searches,
// insertions and deletions ... are logarithmic in time as we use a
// (balanced) BST").
//
// Algorithm 1 keeps the stored intervals pairwise disjoint, so ordering
// them by lower bound orders their upper bounds too: the accesses
// intersecting a query are one contiguous run, starting at the last
// access that begins at or before the query. The tree exploits that.
// It is a B+tree keyed by lower bound, with no upper-bound augmentation:
// a stab is one descent to the run's start and a scan along the leaves.
// A fanout of 32 keeps a tree of 100k accesses four levels deep, where a
// balanced binary tree of that size is seventeen or more. The tree
// relies on disjointness: overlapping or equal intervals are outside
// its contract, and its queries may miss them.
package itree

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
)

// fanout is the most entries a leaf, and children an inner node, holds.
const fanout = 32

// leaf holds up to fanout accesses. The bounds live in lo and hi, in
// ascending order; the accesses themselves stay in stable slots of acc,
// and slot[i] names entry i's slot. An insertion therefore shifts 17
// bytes per later entry rather than a 64-byte access. slot is always a
// permutation of the slot numbers: slot[n:] lists the free ones. Leaves
// are linked in key order; a linked leaf is never empty.
type leaf struct {
	acc        [fanout]access.Access // first, so no access straddles a cache line
	lo, hi     [fanout]uint64
	slot       [fanout]uint8
	n          int
	prev, next *leaf
}

// inner routes a descent: min[i] is the exact least lower bound stored
// under child i. The children are leaves at the lowest inner level and
// inner nodes above it.
type inner struct {
	n      int
	min    [fanout]uint64
	kids   [fanout]*inner
	leaves [fanout]*leaf
}

// step is one level of a recorded root-to-leaf path.
type step struct {
	n *inner
	i int
}

// maxLevels bounds the inner levels. The root splits only when full,
// and every split of a level-d node took 16 new level-(d-1) nodes, so
// h levels take 16^(h-1) leaves: 12 levels exceed any memory.
const maxLevels = 12

// Tree is a B+tree of pairwise-disjoint memory accesses. The zero value
// is an empty tree ready to use. Tree is not safe for concurrent use; in
// the detector each window's tree is owned by a single receiver
// goroutine, matching the paper's per-window analysis thread.
//
// Cleared and emptied leaves go onto a per-tree free list, and inner
// nodes come from a per-tree arena that Clear rewinds, so once the tree
// has reached its high-water size Algorithm 1 allocates nothing. An
// inner node Delete empties returns when the tree empties or clears.
type Tree struct {
	levels int // inner levels; 0 when the tree is empty
	size   int
	// fg says whether path, the root-to-leaf path of the last descent,
	// is a finger the next mutation may reuse. The fields every access
	// touches come first, so they share cache lines.
	fg   finger
	path [maxLevels]step
	root inner
	// free heads the recycled-leaf list, chained through next.
	free  *leaf
	freeN int
	// inners[:innerN] are the inner nodes below the root taken since the
	// tree was last empty; the rest are spares that hold no children.
	inners []*inner
	innerN int
}

// finger is the last descent, kept for the mutation that follows a
// stab: the query and the leaf and position an insert of it goes to;
// find reuses the entries either side, pos-1 and pos. Mutations drop it.
type finger struct {
	ok   bool
	iv   interval.Interval
	leaf *leaf
	pos  int
}

// maxFree caps the free list Clear fills (2,048 leaves, ~5.5 MB).
// ReleaseFree keeps freeReserve leaves, twice a replay-bin epoch's hot
// tree (~530 leaves), and innerReserve spare inner nodes for them.
const (
	maxFree      = 1 << 11
	freeReserve  = 1 << 10
	innerReserve = freeReserve / 16
)

// newLeaf takes a leaf from the free list, or allocates one.
func (t *Tree) newLeaf() *leaf {
	l := t.free
	if l == nil {
		l = &leaf{}
		for i := range l.slot {
			l.slot[i] = uint8(i)
		}
		return l
	}
	t.free, t.freeN = l.next, t.freeN-1
	l.n, l.next = 0, nil
	return l
}

// newInner takes an inner node from the arena, or allocates one.
func (t *Tree) newInner() *inner {
	if t.innerN++; t.innerN > len(t.inners) {
		t.inners = append(t.inners, new(inner))
	}
	return t.inners[t.innerN-1]
}

// recycle pushes an unlinked leaf onto the free list.
func (t *Tree) recycle(l *leaf) {
	if t.freeN < maxFree {
		l.prev, l.next = nil, t.free
		t.free = l
		t.freeN++
	}
}

// Len returns the number of stored accesses — the "number of nodes in
// the BST" reported in Table 4 and §5.3.
func (t *Tree) Len() int { return t.size }

// upper returns how many of keys[:n] are at most x. It probes the
// middle key, then scans: the scan's one mispredicted branch costs less
// than the several of a binary search over 32 keys.
func upper(keys *[fanout]uint64, n int, x uint64) int {
	i := 0
	if n > fanout/2 && keys[fanout/2] <= x {
		i = fanout/2 + 1
	}
	for i < n && keys[i&(fanout-1)] <= x {
		i++
	}
	return i
}

// descend walks a non-empty tree to the leaf holding the last entry
// whose lower bound is at most iv.Lo (the leftmost leaf when there is
// none), recording the path, and returns the leaf and how many of its
// entries start at or before iv.Lo. The descent becomes the finger;
// the callers that mutate drop it.
func (t *Tree) descend(iv interval.Interval) (*leaf, int) {
	n := &t.root
	for d := 0; ; d++ {
		i := max(upper(&n.min, n.n, iv.Lo)-1, 0)
		t.path[d] = step{n, i}
		if d == t.levels-1 {
			l := n.leaves[i]
			p := upper(&l.lo, l.n, iv.Lo)
			// Field by field: a composite literal is copied from the stack
			// in 16-byte moves that stall on the 8-byte stores before them.
			t.fg.ok, t.fg.iv, t.fg.leaf, t.fg.pos = true, iv, l, p
			return l, p
		}
		n = n.kids[i]
	}
}

// lookup returns the leaf and position of the entry whose interval is
// iv, or a nil leaf, leaving the path to it recorded.
func (t *Tree) lookup(iv interval.Interval) (*leaf, int) {
	if t.levels == 0 {
		return nil, 0 // an empty tree holds no finger
	}
	l, p := t.descend(iv)
	t.fg.ok = false
	if p == 0 || l.lo[p-1] != iv.Lo || l.hi[p-1] != iv.Hi {
		return nil, 0
	}
	return l, p - 1
}

// fixMin sets the recorded path's minimum at level d to key, and at
// every level above while the path runs through first children.
func (t *Tree) fixMin(d int, key uint64) {
	for ; d >= 0; d-- {
		s := t.path[d]
		s.n.min[s.i] = key
		if s.i != 0 {
			return
		}
	}
}

// Insert adds acc to the tree; its interval must not intersect a stored
// one. When the last stab queried acc's interval, the entry goes where
// that descent ended instead of descending again.
func (t *Tree) Insert(acc access.Access) {
	l, p := t.fg.leaf, t.fg.pos
	if !t.fg.ok || t.fg.iv != acc.Interval {
		if t.levels == 0 {
			t.levels = 1
			t.root.n, t.root.leaves[0] = 1, t.newLeaf()
		}
		l, p = t.descend(acc.Interval)
	}
	t.fg.ok = false
	t.size++
	if p == 0 {
		// Only the leftmost leaf takes an entry in front: the new
		// minimum of every node on the path.
		t.fixMin(t.levels-1, acc.Lo)
	}
	if l.n == fanout {
		l, p = t.splitLeaf(l, p, acc.Lo)
	}
	copy(l.lo[p+1:l.n+1], l.lo[p:l.n])
	copy(l.hi[p+1:l.n+1], l.hi[p:l.n])
	s := l.slot[l.n]
	copy(l.slot[p+1:l.n+1], l.slot[p:l.n])
	l.lo[p], l.hi[p], l.slot[p] = acc.Lo, acc.Hi, s
	l.acc[s] = acc
	l.n++
}

// splitLeaf moves the upper half of the full leaf l into a new right
// sibling and returns the half and position the entry with lower bound
// key, bound for position p, goes to. Position fanout/2 stays left, so
// the right half's minimum is its first entry. An entry bound for the
// end starts an empty right sibling instead: ascending runs, such as
// MiniVite's strided accesses, then fill their leaves, where even
// splits would leave every one half empty.
func (t *Tree) splitLeaf(l *leaf, p int, key uint64) (*leaf, int) {
	h := fanout / 2
	if p == fanout {
		h = fanout
	}
	r := t.newLeaf()
	for j := 0; j < fanout-h; j++ {
		r.acc[r.slot[j]] = l.acc[l.slot[h+j]]
	}
	copy(r.lo[:], l.lo[h:])
	copy(r.hi[:], l.hi[h:])
	r.n, l.n = fanout-h, h
	r.prev, r.next = l, l.next
	if l.next != nil {
		l.next.prev = r
	}
	l.next = r
	if r.n > 0 {
		key = r.lo[0]
	}
	t.addChild(t.levels-1, key, nil, r)
	if p <= fanout/2 {
		return l, p
	}
	return r, p - h
}

// addChild links a new child (inner node c or leaf lf) with least key
// key right of the recorded path's child at level d, splitting full
// nodes up to the root. The path stays valid for the left halves.
func (t *Tree) addChild(d int, key uint64, c *inner, lf *leaf) {
	n, i := t.path[d].n, t.path[d].i+1
	if n.n == fanout {
		if d == 0 {
			// Grow a level: the root's children move to a new node
			// under it, and the path shifts down.
			old := t.newInner()
			*old = t.root
			t.root = inner{n: 1, min: [fanout]uint64{old.min[0]}, kids: [fanout]*inner{old}}
			copy(t.path[1:t.levels+1], t.path[:t.levels])
			t.path[0], t.path[1].n = step{&t.root, 0}, old
			t.levels++
			d, n = 1, old
		}
		const h = fanout / 2
		r := t.newInner()
		copy(r.min[:], n.min[h:])
		copy(r.kids[:], n.kids[h:])
		copy(r.leaves[:], n.leaves[h:])
		clear(n.kids[h:])
		clear(n.leaves[h:])
		n.n, r.n = h, h
		t.addChild(d-1, r.min[0], r, nil)
		if i > h {
			n, i = r, i-h
		}
	}
	copy(n.min[i+1:n.n+1], n.min[i:n.n])
	copy(n.kids[i+1:n.n+1], n.kids[i:n.n])
	copy(n.leaves[i+1:n.n+1], n.leaves[i:n.n])
	n.min[i], n.kids[i], n.leaves[i] = key, c, lf
	n.n++
}

// Delete removes the stored access whose interval equals iv and reports
// whether there was one. A leaf it empties is unlinked, and so is every
// inner node that loses its last child; nothing is rebalanced, since
// every epoch clears the tree.
func (t *Tree) Delete(iv interval.Interval) bool {
	l, i := t.lookup(iv)
	if l == nil {
		return false
	}
	t.size--
	s := l.slot[i]
	copy(l.lo[i:], l.lo[i+1:l.n])
	copy(l.hi[i:], l.hi[i+1:l.n])
	copy(l.slot[i:], l.slot[i+1:l.n])
	l.n--
	l.slot[l.n] = s
	switch {
	case l.n == 0:
		if l.prev != nil {
			l.prev.next = l.next
		}
		if l.next != nil {
			l.next.prev = l.prev
		}
		t.unlink(t.levels - 1)
		t.recycle(l)
	case i == 0:
		t.fixMin(t.levels-1, l.lo[0])
	}
	return true
}

// unlink removes the recorded path's child at level d from its node.
func (t *Tree) unlink(d int) {
	n, i := t.path[d].n, t.path[d].i
	copy(n.min[i:], n.min[i+1:n.n])
	copy(n.kids[i:], n.kids[i+1:n.n])
	copy(n.leaves[i:], n.leaves[i+1:n.n])
	n.n--
	n.kids[n.n], n.leaves[n.n] = nil, nil
	switch {
	case n.n == 0 && d > 0:
		t.unlink(d - 1)
	case n.n == 0:
		// Every inner node is unlinked, its children cleared on the way.
		t.levels, t.innerN = 0, 0
	case i == 0:
		t.fixMin(d-1, n.min[0])
	}
}

// ExtendHi grows the upper bound of the stored access whose interval
// equals iv to newHi, in place, and reports whether the access was
// found. Disjointness keeps the extension short of the successor, so
// no key moves. When iv is the access left of the last stab's slot in
// the same leaf, its position is reused instead of searching again.
func (t *Tree) ExtendHi(iv interval.Interval, newHi uint64) bool {
	if newHi < iv.Hi {
		return false
	}
	l, i := t.find(iv, t.fg.pos-1)
	if l == nil {
		return false
	}
	l.hi[i] = newHi
	l.acc[l.slot[i]].Hi = newHi
	return true
}

// ExtendLo lowers the lower bound of the stored access whose interval
// equals iv to newLo, in place. Disjointness keeps the extension short
// of the predecessor, so the order holds; a leaf's first entry carries
// its new minimum up the path. When iv is the access right of the last
// stab's slot in the same leaf, its position is reused.
func (t *Tree) ExtendLo(iv interval.Interval, newLo uint64) bool {
	if newLo > iv.Lo {
		return false
	}
	l, i := t.find(iv, t.fg.pos)
	if l == nil {
		return false
	}
	l.lo[i] = newLo
	l.acc[l.slot[i]].Lo = newLo
	if i == 0 {
		t.fixMin(t.levels-1, newLo)
	}
	return true
}

// find invalidates the finger and returns the leaf and position of the
// stored access whose interval equals iv: the finger leaf's entry nb
// when that is iv, else what lookup finds.
func (t *Tree) find(iv interval.Interval, nb int) (*leaf, int) {
	if l := t.fg.leaf; t.fg.ok && uint(nb) < uint(l.n) && l.lo[nb] == iv.Lo && l.hi[nb] == iv.Hi {
		t.fg.ok = false
		return l, nb
	}
	return t.lookup(iv)
}

// cursor is a position in the leaf chain; a nil leaf is past either
// end.
type cursor struct {
	l *leaf
	i int
}

func (c *cursor) next() {
	if c.i++; c.i == c.l.n {
		c.l, c.i = c.l.next, 0
	}
}

func (c cursor) acc() access.Access { return c.l.acc[c.l.slot[c.i]] }

// from returns the cursor at the first access that can intersect iv,
// given the leaf and count descend returned for it: the last one
// starting at or before iv.Lo when it reaches iv.Lo, else the next.
func from(l *leaf, p int, iv interval.Interval) cursor {
	c := cursor{l, p - 1}
	if p == 0 || l.hi[p-1] < iv.Lo {
		c.next()
	}
	return c
}

// VisitStab calls fn for each stored access intersecting iv in ascending
// interval order, stopping early if fn returns false. It reports whether
// the visit ran to completion. Like StabNeighbors it leaves a finger:
// the batch path's emptiness probe is followed by an ExtendHi of the
// access ending just before it.
func (t *Tree) VisitStab(iv interval.Interval, fn func(access.Access) bool) bool {
	if t.levels == 0 {
		return true
	}
	l, p := t.descend(iv)
	for c := from(l, p, iv); c.l != nil && c.l.lo[c.i] <= iv.Hi; c.next() {
		if !fn(c.acc()) {
			return false
		}
	}
	return true
}

// StabNeighbors appends to *dst every stored access intersecting iv
// and returns the immediate boundary neighbours — the stored accesses
// ending exactly at iv.Lo-1 and starting exactly at iv.Hi+1 — when they
// exist. It is the allocation-free workhorse of the contribution's
// insertion hot path: one descent yields everything Algorithm 1 needs
// (the race check, the fragmentation input and the merge candidates).
//
// The left neighbour is the last access starting before iv.Lo, the
// intersecting ones follow it, and the right neighbour is the first
// access after them. The descent becomes the finger the next Insert of
// iv, or extension of a returned neighbour, reuses.
func (t *Tree) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	if t.levels == 0 {
		return left, right, false, false
	}
	l, p := t.descend(iv)
	c := from(l, p, iv)
	lc := cursor{l, p - 1}
	if p > 0 && l.lo[p-1] == iv.Lo {
		lc.i--
	}
	if lc.i < 0 {
		// Only the previous leaf's last entry; p == 0 only happens in
		// the leftmost leaf, which has none.
		if lc.l = l.prev; lc.l != nil {
			lc.i = lc.l.n - 1
		}
	}
	if lc.l != nil && iv.Lo > 0 && lc.l.hi[lc.i] == iv.Lo-1 {
		left, hasLeft = lc.acc(), true
	}
	for ; c.l != nil && c.l.lo[c.i] <= iv.Hi; c.next() {
		*dst = append(*dst, c.acc())
	}
	if c.l != nil && c.l.lo[c.i]-1 == iv.Hi {
		right, hasRight = c.acc(), true
	}
	return left, right, hasLeft, hasRight
}

// InOrder calls fn for every stored access in ascending interval order,
// stopping early if fn returns false.
func (t *Tree) InOrder(fn func(access.Access) bool) {
	for c := (cursor{t.first(), 0}); c.l != nil; c.next() {
		if !fn(c.acc()) {
			return
		}
	}
}

// first returns the leftmost leaf, or nil for an empty tree, without
// touching the finger.
func (t *Tree) first() *leaf {
	if t.levels == 0 {
		return nil
	}
	n := &t.root
	for d := 1; d < t.levels; d++ {
		n = n.kids[0]
	}
	return n.leaves[0]
}

// Clear empties the tree, as RMA-Analyzer does at the end of an epoch,
// putting its leaves on the free list and rewinding its inner nodes, so
// the next epoch's insertions allocate nothing.
func (t *Tree) Clear() {
	for l := t.first(); l != nil; {
		next := l.next
		t.recycle(l)
		l = next
	}
	for _, n := range t.inners[:t.innerN] {
		*n = inner{}
	}
	t.root, t.levels, t.size, t.fg, t.path, t.innerN = inner{}, 0, 0, finger{}, [maxLevels]step{}, 0
}

// ReleaseFree trims the spare leaves and inner nodes to their reserves,
// handing the rest to the GC, and forgets the finger, so nothing pins a
// freed leaf; live tree state is untouched. The bounded-memory trace
// replay calls it at epoch boundaries (via store.Compact), so a hot
// tree refills without allocating and a spike's nodes go back.
func (t *Tree) ReleaseFree() {
	for t.freeN > freeReserve {
		t.free, t.freeN = t.free.next, t.freeN-1
	}
	if k := t.innerN + innerReserve; len(t.inners) > k {
		clear(t.inners[k:])
		t.inners = t.inners[:k]
	}
	t.fg = finger{}
}
