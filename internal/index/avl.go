package index

import "squall/internal/types"

// Tree is a balanced (AVL) binary search tree keyed by types.Value, holding
// multiple uint32 refs per key (row refs or combo ordinals into the owner's
// state, so the items hold no pointers) and maintaining subtree item counts.
type Tree struct {
	root *tnode
	mem  int
}

type tnode struct {
	key  types.Value
	refs []uint32
	l, r *tnode
	h    int8
	cnt  int64 // subtree item count (including this node's refs)
}

// itemBytes is the accounted footprint of one item: its ref plus its share
// of the key.
func itemBytes(key types.Value) int { return 4 + key.MemSize() }

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{} }

func height(n *tnode) int8 {
	if n == nil {
		return 0
	}
	return n.h
}

func cnt(n *tnode) int64 {
	if n == nil {
		return 0
	}
	return n.cnt
}

func (n *tnode) update() {
	hl, hr := height(n.l), height(n.r)
	if hl > hr {
		n.h = hl + 1
	} else {
		n.h = hr + 1
	}
	n.cnt = cnt(n.l) + cnt(n.r) + int64(len(n.refs))
}

func rotRight(y *tnode) *tnode {
	x := y.l
	y.l = x.r
	x.r = y
	y.update()
	x.update()
	return x
}

func rotLeft(x *tnode) *tnode {
	y := x.r
	x.r = y.l
	y.l = x
	x.update()
	y.update()
	return y
}

func balance(n *tnode) *tnode {
	n.update()
	bf := height(n.l) - height(n.r)
	switch {
	case bf > 1:
		if height(n.l.l) < height(n.l.r) {
			n.l = rotLeft(n.l)
		}
		return rotRight(n)
	case bf < -1:
		if height(n.r.r) < height(n.r.l) {
			n.r = rotRight(n.r)
		}
		return rotLeft(n)
	default:
		return n
	}
}

// Insert adds ref under key.
func (t *Tree) Insert(key types.Value, ref uint32) {
	t.root = insert(t.root, key, ref)
	t.mem += itemBytes(key)
}

func insert(n *tnode, key types.Value, ref uint32) *tnode {
	if n == nil {
		nn := &tnode{key: key, refs: []uint32{ref}}
		nn.update()
		return nn
	}
	switch c := key.Compare(n.key); {
	case c < 0:
		n.l = insert(n.l, key, ref)
	case c > 0:
		n.r = insert(n.r, key, ref)
	default:
		n.refs = append(n.refs, ref)
	}
	return balance(n)
}

// Delete removes one occurrence of ref under key, reporting whether a
// removal happened.
func (t *Tree) Delete(key types.Value, ref uint32) bool {
	var removed bool
	t.root, removed = del(t.root, key, ref)
	if removed {
		t.mem -= itemBytes(key)
	}
	return removed
}

func del(n *tnode, key types.Value, ref uint32) (*tnode, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch c := key.Compare(n.key); {
	case c < 0:
		n.l, removed = del(n.l, key, ref)
	case c > 0:
		n.r, removed = del(n.r, key, ref)
	default:
		for i, r := range n.refs {
			if r == ref {
				n.refs = append(n.refs[:i], n.refs[i+1:]...)
				removed = true
				break
			}
		}
		if len(n.refs) == 0 && removed {
			// Remove the node itself.
			if n.l == nil {
				return n.r, true
			}
			if n.r == nil {
				return n.l, true
			}
			// Replace with in-order successor.
			succ := n.r
			for succ.l != nil {
				succ = succ.l
			}
			n.key, n.refs = succ.key, succ.refs
			succ.refs = nil // mark hollow; remove below by key with empty match
			n.r = removeHollow(n.r)
		}
	}
	if !removed {
		return n, false
	}
	return balance(n), true
}

// removeHollow deletes the leftmost hollow (refs==nil) node, used during
// successor replacement.
func removeHollow(n *tnode) *tnode {
	if n.l == nil {
		if n.refs == nil {
			return n.r
		}
		return n // not hollow; shouldn't happen
	}
	n.l = removeHollow(n.l)
	return balance(n)
}

// Len returns the number of stored items.
func (t *Tree) Len() int64 { return cnt(t.root) }

// MemSize approximates the tree footprint in bytes.
func (t *Tree) MemSize() int { return t.mem + 48 }

// Bound is one end of a range; Unbounded() means ±infinity.
type Bound struct {
	V         types.Value
	Inclusive bool
	Open      bool // true => unbounded
}

// Unbounded returns the ±infinity bound.
func Unbounded() Bound { return Bound{Open: true} }

// Incl returns an inclusive bound at v.
func Incl(v types.Value) Bound { return Bound{V: v, Inclusive: true} }

// Excl returns an exclusive bound at v.
func Excl(v types.Value) Bound { return Bound{V: v} }

func (b Bound) belowLo(key types.Value) bool { // key < lo?
	if b.Open {
		return false
	}
	c := key.Compare(b.V)
	if b.Inclusive {
		return c < 0
	}
	return c <= 0
}

func (b Bound) aboveHi(key types.Value) bool { // key > hi?
	if b.Open {
		return false
	}
	c := key.Compare(b.V)
	if b.Inclusive {
		return c > 0
	}
	return c >= 0
}

// Range visits the refs with lo <= key <= hi (subject to bound openness) in
// key order; fn returning false stops the scan.
func (t *Tree) Range(lo, hi Bound, fn func(key types.Value, ref uint32) bool) {
	rangeVisit(t.root, lo, hi, fn)
}

func rangeVisit(n *tnode, lo, hi Bound, fn func(types.Value, uint32) bool) bool {
	if n == nil {
		return true
	}
	if !lo.belowLo(n.key) { // n.key >= lo: left subtree may contain matches
		if !rangeVisit(n.l, lo, hi, fn) {
			return false
		}
	}
	if !lo.belowLo(n.key) && !hi.aboveHi(n.key) {
		for _, ref := range n.refs {
			if !fn(n.key, ref) {
				return false
			}
		}
	}
	if !hi.aboveHi(n.key) { // n.key <= hi: right subtree may contain matches
		if !rangeVisit(n.r, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Height exposes the tree height for balance tests.
func (t *Tree) Height() int { return int(height(t.root)) }
