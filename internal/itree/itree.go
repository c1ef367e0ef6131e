// Package itree implements the balanced Binary Search Tree the paper's
// new insertion algorithm stores memory accesses in (§4.2: "searches,
// insertions and deletions ... are logarithmic in time as we use a
// (balanced) BST").
//
// The tree is an AVL tree keyed by interval lower bound, augmented with
// the maximum upper bound of each subtree so that stabbing queries
// ("all stored accesses intersecting a given interval") visit only
// O(log n + k) nodes. Under Algorithm 1 the stored intervals are always
// pairwise disjoint, which makes lower bounds unique keys; the tree
// nevertheless tolerates equal lower bounds (ordering by upper bound)
// so it can be exercised and property-tested independently of the
// detector's invariants.
package itree

import (
	"rmarace/internal/access"
	"rmarace/internal/interval"
)

type node struct {
	acc         access.Access
	left, right *node
	height      int
	maxHi       uint64 // max interval.Hi in this subtree
}

// Tree is an AVL interval tree of memory accesses. The zero value is an
// empty tree ready to use. Tree is not safe for concurrent use; in the
// detector each window's tree is owned by a single receiver goroutine,
// matching the paper's per-window analysis thread.
//
// Deleted and cleared nodes are kept on a per-tree free list (chained
// through their left pointers) and reused by later insertions, so the
// steady-state insert/delete cycle of Algorithm 1 — and the per-epoch
// Clear — allocates nothing once the tree has reached its high-water
// size. A plain free list beats a sync.Pool here: the tree is single-
// owner, so there is no synchronisation to pay for, and nodes never
// migrate between analyzers.
type Tree struct {
	root *node
	size int
	// free heads the recycled-node list; freeN bounds its length so a
	// one-off spike does not pin memory forever.
	free  *node
	freeN int
	// nb is StabNeighbors' reusable query state for the overlap case.
	// Keeping it on the (heap-resident, single-owner) tree instead of
	// in locals whose addresses are passed down the recursion keeps the
	// hot path free of escape-forced allocations.
	nb nbQuery
	// path is the root-to-leaf path of the last key descent, and fg
	// says whether it is a finger the next mutation may reuse.
	path [maxPath]*node
	fg   finger
}

// maxPath bounds a root-to-leaf path. An AVL tree of height h holds at
// least Fib(h+2)-1 nodes, so 64 levels exceed any tree that fits in
// memory.
const maxPath = 64

// finger is what a StabNeighbors descent that found nothing overlapping
// its query leaves for the mutation that follows it: the query, the
// length of the recorded path (whose last node's nil child on side
// left is where the query inserts), and the path indices of the
// boundary neighbours. Every mutation invalidates it.
type finger struct {
	ok         bool
	iv         interval.Interval
	depth      int
	left       bool
	pred, succ int // neighbour path indices, -1 when absent
}

// nbQuery carries one StabNeighbors traversal's inputs and results.
type nbQuery struct {
	iv, wide    interval.Interval
	dst         *[]access.Access
	left, right access.Access
	hasLeft     bool
	hasRight    bool
}

// maxFree caps the free list; beyond it nodes are released to the GC.
const maxFree = 1 << 16

// newNode takes a node from the free list, or allocates one.
func (t *Tree) newNode(acc access.Access) *node {
	n := t.free
	if n == nil {
		n = &node{}
	} else {
		t.free = n.left
		t.freeN--
		n.left, n.right = nil, nil
	}
	n.acc = acc
	n.update()
	return n
}

// recycle pushes an unlinked node onto the free list.
func (t *Tree) recycle(n *node) {
	if t.freeN >= maxFree {
		return
	}
	n.left, n.right = t.free, nil
	n.acc = access.Access{}
	t.free = n
	t.freeN++
}

// Len returns the number of stored accesses — the "number of nodes in
// the BST" reported in Table 4 and §5.3.
func (t *Tree) Len() int { return t.size }

// Height returns the height of the tree (0 for an empty tree).
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxHi(n *node) uint64 {
	if n == nil {
		return 0
	}
	return n.maxHi
}

func (n *node) update() {
	n.height = 1 + max(height(n.left), height(n.right))
	n.maxHi = n.acc.Hi
	if l := n.left; l != nil && l.maxHi > n.maxHi {
		n.maxHi = l.maxHi
	}
	if r := n.right; r != nil && r.maxHi > n.maxHi {
		n.maxHi = r.maxHi
	}
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

func balance(n *node) *node {
	n.update()
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert adds acc to the tree. Accesses with identical intervals are
// both kept (the tree is a multiset, like the std::multiset RMA-Analyzer
// uses): an equal key goes right of its twin. The detector's
// disjointness invariant makes this case unreachable in normal
// operation.
//
// When the last StabNeighbors queried acc's interval and found nothing
// overlapping it, the node is linked at the slot that descent ended on
// instead of searching again. Either way the path is rebalanced bottom
// up, stopping at the first subtree whose height and maximum upper
// bound the insertion left unchanged.
func (t *Tree) Insert(acc access.Access) {
	d, left := t.fg.depth, t.fg.left
	if !t.fg.ok || t.fg.iv != acc.Interval {
		d = 0
		for n := t.root; n != nil; d++ {
			t.path[d] = n
			left = acc.Interval.Compare(n.acc.Interval) < 0
			if left {
				n = n.left
			} else {
				n = n.right
			}
		}
	}
	t.fg.ok = false
	t.size++
	n := t.newNode(acc)
	if d == 0 {
		t.root = n
		return
	}
	if p := t.path[d-1]; left {
		p.left = n
	} else {
		p.right = n
	}
	for i := d - 1; i >= 0; i-- {
		n := t.path[i]
		h, m := n.height, n.maxHi
		b := balance(n)
		switch { // relink a rotated subtree into its parent
		case b == n:
		case i == 0:
			t.root = b
		case t.path[i-1].left == n:
			t.path[i-1].left = b
		default:
			t.path[i-1].right = b
		}
		if b.height == h && b.maxHi == m {
			return
		}
	}
}

// Delete removes the stored access whose interval equals iv and reports
// whether such an access existed. When several accesses share the
// interval an arbitrary one is removed.
func (t *Tree) Delete(iv interval.Interval) bool {
	t.fg.ok = false
	var deleted bool
	t.root, deleted = t.remove(t.root, iv)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Tree) remove(n *node, iv interval.Interval) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch cmp := iv.Compare(n.acc.Interval); {
	case cmp < 0:
		n.left, deleted = t.remove(n.left, iv)
	case cmp > 0:
		n.right, deleted = t.remove(n.right, iv)
	default:
		deleted = true
		if n.left == nil {
			r := n.right
			t.recycle(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.recycle(n)
			return l, true
		}
		// Replace with the in-order successor; the successor's physical
		// node is unlinked (and recycled) by the inner removal.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.acc = succ.acc
		n.right, _ = t.remove(n.right, succ.acc.Interval)
	}
	return balance(n), deleted
}

// ExtendHi grows the upper bound of the stored access whose interval
// equals iv to newHi, in place, and reports whether the access was
// found. Under the disjointness invariant the extension cannot cross
// the successor's interval, so the node's position stays valid; only
// the max-upper-bound augmentation is raised along the path to it.
// When iv is the left neighbour the last StabNeighbors returned, its
// recorded path is reused instead of searching again.
func (t *Tree) ExtendHi(iv interval.Interval, newHi uint64) bool {
	if newHi < iv.Hi {
		return false
	}
	i := t.find(iv, t.fg.pred)
	if i < 0 {
		return false
	}
	t.path[i].acc.Hi = newHi
	for ; i >= 0 && t.path[i].maxHi < newHi; i-- {
		t.path[i].maxHi = newHi
	}
	return true
}

// ExtendLo lowers the lower bound of the stored access whose interval
// equals iv to newLo, in place. Under the disjointness invariant the
// extension cannot cross the predecessor's interval, so the ordering by
// lower bound is preserved and no augmentation changes. When iv is the
// right neighbour the last StabNeighbors returned, its recorded path is
// reused instead of searching again.
func (t *Tree) ExtendLo(iv interval.Interval, newLo uint64) bool {
	if newLo > iv.Lo {
		return false
	}
	i := t.find(iv, t.fg.succ)
	if i < 0 {
		return false
	}
	t.path[i].acc.Lo = newLo
	return true
}

// find invalidates the finger and returns the path index of the
// stored access whose interval equals iv: nb, the finger's index of a
// neighbour, when that neighbour is iv, else the end of a fresh key
// descent, or -1 when iv is not stored.
func (t *Tree) find(iv interval.Interval, nb int) int {
	ok := t.fg.ok
	t.fg.ok = false
	if ok && nb >= 0 && t.path[nb].acc.Interval == iv {
		return nb
	}
	d := 0
	for n := t.root; n != nil; d++ {
		t.path[d] = n
		switch cmp := iv.Compare(n.acc.Interval); {
		case cmp < 0:
			n = n.left
		case cmp > 0:
			n = n.right
		default:
			return d
		}
	}
	return -1
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

// VisitStab calls fn for each stored access intersecting iv in ascending
// interval order, stopping early if fn returns false. It reports whether
// the visit ran to completion.
func (t *Tree) VisitStab(iv interval.Interval, fn func(access.Access) bool) bool {
	return visitStab(t.root, iv, fn)
}

func visitStab(n *node, iv interval.Interval, fn func(access.Access) bool) bool {
	if n == nil || maxHi(n) < iv.Lo {
		// No interval in this subtree reaches iv.
		return true
	}
	if !visitStab(n.left, iv, fn) {
		return false
	}
	if n.acc.Intersects(iv) {
		if !fn(n.acc) {
			return false
		}
	}
	if n.acc.Lo > iv.Hi {
		// Keys right of here start after iv ends; their subtrees can
		// still only contain larger lower bounds.
		return true
	}
	return visitStab(n.right, iv, fn)
}

// StabNeighbors appends to *dst every stored access intersecting iv
// and returns the immediate boundary neighbours — the stored accesses
// ending exactly at iv.Lo-1 and starting exactly at iv.Hi+1 — when they
// exist. It is the allocation-free workhorse of the contribution's
// insertion hot path: one traversal yields everything Algorithm 1 needs
// (the race check, the fragmentation input and the merge candidates).
// dst's contents are only valid under the disjointness invariant.
//
// The query descends once by key, as Insert would, and records its
// path. Under disjointness nothing intersects iv exactly when the last
// node the descent passed going right (the in-order predecessor of
// iv's slot) ends before iv and the last one passed going left (the
// successor) starts after it; those two are then the only possible
// neighbours. That path becomes the finger the next Insert of iv, or
// extension of a returned neighbour, reuses. When something does
// overlap, the full augmented traversal collects it.
func (t *Tree) StabNeighbors(iv interval.Interval, dst *[]access.Access) (left, right access.Access, hasLeft, hasRight bool) {
	pred, succ := -1, -1
	d, goLeft := 0, false
	for n := t.root; n != nil; d++ {
		t.path[d] = n
		goLeft = iv.Compare(n.acc.Interval) < 0
		if goLeft {
			succ = d
			n = n.left
		} else {
			pred = d
			n = n.right
		}
	}
	if (pred < 0 || t.path[pred].acc.Hi < iv.Lo) && (succ < 0 || t.path[succ].acc.Lo > iv.Hi) {
		if pred >= 0 && t.path[pred].acc.Hi+1 == iv.Lo {
			left, hasLeft = t.path[pred].acc, true
		} else {
			pred = -1
		}
		if succ >= 0 && t.path[succ].acc.Lo-1 == iv.Hi {
			right, hasRight = t.path[succ].acc, true
		} else {
			succ = -1
		}
		t.fg = finger{ok: true, iv: iv, depth: d, left: goLeft, pred: pred, succ: succ}
		return left, right, hasLeft, hasRight
	}
	t.fg.ok = false
	wide := iv
	if wide.Lo > 0 {
		wide.Lo--
	}
	if wide.Hi+1 != 0 {
		wide.Hi++
	}
	q := &t.nb
	q.iv, q.wide, q.dst = iv, wide, dst
	q.hasLeft, q.hasRight = false, false
	t.stabNeighbors(t.root, q)
	q.dst = nil
	return q.left, q.right, q.hasLeft, q.hasRight
}

func (t *Tree) stabNeighbors(n *node, q *nbQuery) {
	if n == nil || n.maxHi < q.wide.Lo {
		return
	}
	t.stabNeighbors(n.left, q)
	if n.acc.Intersects(q.wide) {
		switch {
		case n.acc.Hi < q.iv.Lo:
			q.left = n.acc
			q.hasLeft = true
		case n.acc.Lo > q.iv.Hi:
			q.right = n.acc
			q.hasRight = true
		default:
			*q.dst = append(*q.dst, n.acc)
		}
	}
	if n.acc.Lo > q.wide.Hi {
		return
	}
	t.stabNeighbors(n.right, q)
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

// InOrder calls fn for every stored access in ascending interval order,
// stopping early if fn returns false.
func (t *Tree) InOrder(fn func(access.Access) bool) {
	inOrder(t.root, fn)
}

func inOrder(n *node, fn func(access.Access) bool) bool {
	if n == nil {
		return true
	}
	return inOrder(n.left, fn) && fn(n.acc) && inOrder(n.right, fn)
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

// Clear empties the tree, as RMA-Analyzer does at the end of an epoch,
// reclaiming every node onto the free list so the next epoch's
// insertions allocate nothing.
func (t *Tree) Clear() {
	t.fg.ok = false
	t.reclaim(t.root)
	t.root = nil
	t.size = 0
}

// ReleaseFree drops the recycled-node free list, handing its nodes to
// the GC. The free list exists only to make the steady-state
// insert/delete cycle allocation-free; releasing it never touches live
// tree state, so it is safe at any point. The bounded-memory trace
// replay calls it at epoch boundaries (via store.Compact) to keep peak
// RSS flat across many resident trees, at the price of re-allocating
// nodes in the next epoch. It also forgets the recorded search path,
// so the path pins no node the free list let go of.
func (t *Tree) ReleaseFree() {
	t.free = nil
	t.freeN = 0
	t.fg.ok = false
	t.path = [maxPath]*node{}
}

func (t *Tree) reclaim(n *node) {
	if n == nil {
		return
	}
	t.reclaim(n.left)
	t.reclaim(n.right)
	t.recycle(n)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
