package baseline

import (
	"repro/internal/tree"
)

// A reduction tree (§3.2) has no execution data (n_i = 0) and outputs no
// larger than inputs (f_i ≤ Σ_{children} f_j). General trees are turned
// into reduction trees by attaching one fictitious zero-time leaf child to
// every offending node, carrying enough output data to absorb the node's
// execution data and any output excess. The transformation preserves the
// memory needed to process each original node but can only increase the
// peak memory of any traversal — the key drawback the paper exploits.

// RedTree is the result of transforming a general task tree into a
// reduction tree.
type RedTree struct {
	// Tree is the transformed tree. Nodes 0..orig-1 are the original
	// tasks with n_i folded away; nodes orig.. are fictitious leaves.
	Tree *tree.Tree
	// Orig is the number of original tasks; node IDs below Orig map
	// one-to-one to the input tree.
	Orig int
	// FicParent[k] is the original node under which fictitious node
	// Orig+k hangs.
	FicParent []tree.NodeID
}

// ToReductionTree transforms t into a reduction tree. For every node i
// with n_i > 0 or f_i > Σ f_children, a fictitious leaf child with output
//
//	f_c = max(n_i, n_i + f_i − Σ f_children)
//
// is added, so that in the transformed tree MemNeeded is unchanged
// (Σf_j + f_c + f_i ≥ Σf_j + n_i + f_i, with equality when the output
// excess is absorbed by n_i) and f_i ≤ Σ inputs holds everywhere.
// Fictitious leaves take zero processing time.
func ToReductionTree(t *tree.Tree) *RedTree {
	n := t.Len()
	parent := make([]tree.NodeID, 0, 2*n)
	out := make([]float64, 0, 2*n)
	tm := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		parent = append(parent, t.Parent(tree.NodeID(i)))
		out = append(out, t.Out(tree.NodeID(i)))
		tm = append(tm, t.Time(tree.NodeID(i)))
	}
	var ficParent []tree.NodeID
	for i := 0; i < n; i++ {
		id := tree.NodeID(i)
		if t.IsLeaf(id) && t.Exec(id) == 0 {
			// A data-free leaf is a source: the reduction property does
			// not constrain it and no fictitious child is needed.
			continue
		}
		sumIn := 0.0
		for _, c := range t.Children(id) {
			sumIn += t.Out(c)
		}
		fc := t.Exec(id)
		if excess := t.Exec(id) + t.Out(id) - sumIn; excess > fc {
			fc = excess
		}
		if fc > 0 {
			parent = append(parent, id)
			out = append(out, fc)
			tm = append(tm, 0)
			ficParent = append(ficParent, id)
		}
	}
	rt := tree.MustNew(parent, nil, out, tm)
	return &RedTree{Tree: rt, Orig: n, FicParent: ficParent}
}

// IsReductionTree reports whether t satisfies the two reduction-tree
// properties: no execution data, and outputs no larger than inputs.
func IsReductionTree(t *tree.Tree) bool {
	for i := 0; i < t.Len(); i++ {
		id := tree.NodeID(i)
		if t.Exec(id) != 0 {
			return false
		}
		if t.IsLeaf(id) {
			continue
		}
		sumIn := 0.0
		for _, c := range t.Children(id) {
			sumIn += t.Out(c)
		}
		if t.Out(id) > sumIn+1e-12*(1+sumIn) {
			return false
		}
	}
	return true
}
