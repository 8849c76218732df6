package tree

import (
	"fmt"
	"math/bits"
)

// LayOut builds t renumbered by seq, a topological order of t (children
// before parents): node seq[k] of t becomes node k of the result. It is
// how a scheduler that walks a tree in one fixed order — MemBooking walks
// its activation order — gets every per-node array it reads laid out in
// that order: on the result the order is the identity, and the arrays
// are read nearly in sequence instead of at random.
//
// Everything else carries over under the map: each node's attributes,
// its children in their original relative order, the critical path, and
// MemNeededAll bit for bit (a laid-out tree sums a node's children in
// that original order, as the parent loop of a New tree does).
//
// The result is built in dst's storage when dst is a laid-out tree: a
// pool recycles laid-out trees by passing the last one back. Storage
// too small for t is replaced by arrays sized to 1<<SizeClass(n), so a
// pool can serve a whole size class from one. A nil dst, or one that
// LayOut did not build (its arrays may be shared by whoever holds it),
// gets fresh storage. The returned tree is dst, or the fresh one. On error
// (seq is no permutation of t's nodes, or not topological) dst's contents
// are garbage until its next successful LayOut.
func (t *Tree) LayOut(seq []NodeID, dst *Tree) (*Tree, error) {
	n := t.Len()
	if len(seq) != n {
		return nil, fmt.Errorf("tree: layout sequence has %d nodes, tree %d", len(seq), n)
	}
	if dst == nil || !dst.laid {
		dst = &Tree{}
	}
	dst.resize(n)
	pos := dst.pos
	for i := range pos {
		pos[i] = None
	}
	for k, v := range seq {
		if v < 0 || int(v) >= n || pos[v] != None {
			return nil, fmt.Errorf("tree: layout sequence is not a permutation (node %d at %d)", v, k)
		}
		pos[v] = NodeID(k)
	}
	// Two passes over seq: the first only gathers, so its loads overlap;
	// the second's child loops, whose lengths vary, would stall them.
	exec, out, tm := dst.exec, dst.out, dst.time
	for k, v := range seq {
		exec[k], out[k], tm[k] = t.exec[v], t.out[v], t.time[v]
	}
	dst.childStart[0] = 0
	for k, v := range seq {
		at := dst.childStart[k]
		for _, c := range t.Children(v) {
			ck := pos[c]
			if ck >= NodeID(k) {
				return nil, fmt.Errorf("tree: layout sequence is not topological (node %d at %d before its child %d)", v, k, c)
			}
			dst.childList[at] = ck
			dst.parent[ck] = NodeID(k)
			at++
		}
		dst.childStart[k+1] = at
	}
	// Topological, so the root comes last.
	dst.root = NodeID(n - 1)
	dst.parent[n-1] = None
	dst.cp = t.cp
	dst.laid = true
	return dst, nil
}

// SizeClass is ⌈log₂ n⌉: the class of an n-node tree when storage sized
// for it is recycled, and the exponent of the capacity such storage is
// grown to. Storage grown for any tree of a class holds every tree of
// that class.
func SizeClass(n int) int { return bits.Len(uint(n - 1)) }

// resize gives t n nodes of storage, keeping its arrays when they hold
// n and growing them to 1<<SizeClass(n) otherwise, three arrays of a
// type to one allocation.
func (t *Tree) resize(n int) {
	if cap(t.parent) < n {
		c := 1 << SizeClass(n)
		ids, attrs := make([]NodeID, 3*c), make([]float64, 3*c)
		t.parent, t.childList, t.pos = ids[:c:c], ids[c:2*c:2*c], ids[2*c:]
		t.exec, t.out, t.time = attrs[:c:c], attrs[c:2*c:2*c], attrs[2*c:]
		t.childStart = make([]int32, c+1)
	}
	t.parent = t.parent[:n]
	t.exec = t.exec[:n]
	t.out = t.out[:n]
	t.time = t.time[:n]
	t.childStart = t.childStart[:n+1]
	t.childList = t.childList[:n-1]
	t.pos = t.pos[:n]
}

// LaidOut reports whether t was built by LayOut. Such a tree's storage
// may be recycled into another layout under the same pointer, so
// nothing may be memoized against it by pointer.
func (t *Tree) LaidOut() bool { return t.laid }
