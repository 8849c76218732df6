// Package tree defines the rooted in-tree task-graph model of the paper
// "Dynamic memory-aware task-tree scheduling" (Aupy, Brasseur, Marchal).
//
// A tree holds n tasks. Task i is characterised by its execution data n_i
// (field Exec), the size f_i of its output data (field Out) and its
// processing time t_i (field Time). Edges point towards the root: every
// node has at most one parent, and the parent consumes the outputs of all
// its children. Processing node i requires
//
//	MemNeeded(i) = sum_{j in children(i)} Out[j] + Exec[i] + Out[i]
//
// units of memory to be simultaneously resident.
package tree

import (
	"fmt"
	"math"
)

// NodeID identifies a task. IDs are dense indices in [0, Len()).
type NodeID int32

// None is the absent node (the parent of the root).
const None NodeID = -1

// Tree is an immutable rooted in-tree of tasks. Build one with New or
// Builder; after construction the slices must not be mutated. LayOut
// builds one too, in recycled storage: a laid-out tree is immutable
// until its storage is passed to LayOut again.
type Tree struct {
	parent []NodeID
	exec   []float64 // n_i: execution data, freed when the task completes
	out    []float64 // f_i: output data, freed when the parent completes
	time   []float64 // t_i: processing time

	root NodeID

	// children in CSR layout: children of i are childList[childStart[i]:childStart[i+1]].
	childStart []int32
	childList  []NodeID

	cp float64 // critical path, taken by walk

	// laid marks a tree built by LayOut, whose child lists are not in
	// ID order: MemNeededInto sums its children through them. pos is
	// LayOut's scratch, kept with the storage it recycles.
	laid bool
	pos  []NodeID
}

// New builds a tree from parallel arrays. parent[i] is the parent of node i
// (None for the root). exec, out and time give n_i, f_i and t_i; any of them
// may be nil, which is treated as all zeros (for time, all ones).
func New(parent []NodeID, exec, out, tm []float64) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty node set")
	}
	fill := func(v []float64, def float64) ([]float64, error) {
		if v == nil {
			v = make([]float64, n)
			for i := range v {
				v[i] = def
			}
			return v, nil
		}
		if len(v) != n {
			return nil, fmt.Errorf("tree: attribute length %d != %d nodes", len(v), n)
		}
		return v, nil
	}
	var err error
	if exec, err = fill(exec, 0); err != nil {
		return nil, err
	}
	if out, err = fill(out, 0); err != nil {
		return nil, err
	}
	if tm, err = fill(tm, 1); err != nil {
		return nil, err
	}
	t := &Tree{parent: parent, exec: exec, out: out, time: tm, root: None}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New but panics on error; for tests and generators whose inputs
// are correct by construction.
func MustNew(parent []NodeID, exec, out, tm []float64) *Tree {
	t, err := New(parent, exec, out, tm)
	if err != nil {
		panic(err)
	}
	return t
}

// index builds the CSR children structure and validates the tree shape.
func (t *Tree) index() error {
	n := len(t.parent)
	t.childStart = make([]int32, n+1)
	for i, p := range t.parent {
		if p == None {
			if t.root != None {
				return fmt.Errorf("tree: two roots (%d and %d)", t.root, i)
			}
			t.root = NodeID(i)
			continue
		}
		if p < 0 || int(p) >= n {
			return fmt.Errorf("tree: node %d has out-of-range parent %d", i, p)
		}
		if int(p) == i {
			return fmt.Errorf("tree: node %d is its own parent", i)
		}
		t.childStart[p+1]++
	}
	if t.root == None {
		return fmt.Errorf("tree: no root")
	}
	for i := 0; i < n; i++ {
		t.childStart[i+1] += t.childStart[i]
	}
	t.childList = make([]NodeID, n-1)
	fill := make([]int32, n)
	for i, p := range t.parent {
		if p == None {
			continue
		}
		t.childList[t.childStart[p]+fill[p]] = NodeID(i)
		fill[p]++
	}
	// Reachability from the root proves acyclicity (n-1 edges + connected).
	if seen := t.walk(); seen != n {
		return fmt.Errorf("tree: %d of %d nodes unreachable from root (cycle or forest)", n-seen, n)
	}
	return nil
}

// walk visits the nodes reachable from the root, parents before
// children, and returns how many it reached. On the way it forms every
// node's bottom level, bl(v) = bl(parent) + t_v — the sums BottomLevels
// forms — and stores their maximum as the critical path. Siblings are
// pushed together and share their parent's bl, so the walk keeps one
// float per pushed family, not one per node.
func (t *Tree) walk() int {
	type family struct {
		start int     // stack index of the family's first member
		bl    float64 // the parent's bottom level
	}
	seen, cp := 0, 0.0
	stack := []NodeID{t.root}
	fams := []family{{0, 0}}
	for len(stack) > 0 {
		k := len(stack) - 1
		v := stack[k]
		stack = stack[:k]
		f := fams[len(fams)-1]
		if f.start == k {
			fams = fams[:len(fams)-1]
		}
		bl := f.bl + t.time[v]
		if bl > cp {
			cp = bl
		}
		seen++
		if kids := t.Children(v); len(kids) > 0 {
			fams = append(fams, family{k, bl})
			stack = append(stack, kids...)
		}
	}
	t.cp = cp
	return seen
}

// Len returns the number of tasks.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root task.
func (t *Tree) Root() NodeID { return t.root }

// Parent returns the parent of i, or None for the root.
func (t *Tree) Parent(i NodeID) NodeID { return t.parent[i] }

// Children returns the children of i. The returned slice aliases internal
// storage and must not be modified.
func (t *Tree) Children(i NodeID) []NodeID {
	return t.childList[t.childStart[i]:t.childStart[i+1]]
}

// Degree returns the number of children of i.
func (t *Tree) Degree(i NodeID) int {
	return int(t.childStart[i+1] - t.childStart[i])
}

// IsLeaf reports whether i has no children.
func (t *Tree) IsLeaf(i NodeID) bool { return t.Degree(i) == 0 }

// Exec returns n_i, the size of the execution data of i.
func (t *Tree) Exec(i NodeID) float64 { return t.exec[i] }

// Out returns f_i, the size of the output data of i.
func (t *Tree) Out(i NodeID) float64 { return t.out[i] }

// Time returns t_i, the processing time of i.
func (t *Tree) Time(i NodeID) float64 { return t.time[i] }

// MemNeededAll returns, for every node i, the memory needed to process
// it (Equation (1) of the paper): the outputs of all children plus the
// execution and output data of i.
func (t *Tree) MemNeededAll() []float64 {
	return t.MemNeededInto(make([]float64, t.Len()))
}

// MemNeededInto fills m (which must have length Len) with MemNeededAll
// and returns it: the allocation-free variant schedulers
// rebound to a new tree use to recompute their need vector in place.
//
// Each node's children are added in original ID order, so a tree and
// its layout round alike: a New tree takes them in a pass over the
// parents, a laid-out one, whose IDs are no longer the original ones, in
// a pass over its child lists, which keep that order. On a New tree the
// two passes agree bit for bit, but the parent pass reads its arrays in
// sequence where the child-list pass reads them at random: at 1M nodes
// 14 against 24 ns/node on a random tree and 12 against 29 on a chain,
// at 10k 4 against 5 (BenchmarkMemNeededInto, median of 5 on a 2-core VM).
func (t *Tree) MemNeededInto(m []float64) []float64 {
	m = m[:t.Len()]
	for i := range m {
		m[i] = t.exec[i] + t.out[i]
	}
	if t.laid {
		t.addChildOutputs(m)
	} else {
		t.addParentOutputs(m)
	}
	return m
}

// addParentOutputs adds each node's output to its parent's m in a pass
// over the nodes.
func (t *Tree) addParentOutputs(m []float64) {
	for i, p := range t.parent {
		if p != None {
			m[p] += t.out[i]
		}
	}
}

// addChildOutputs adds each node's output to its parent's m in a pass
// over the child lists.
func (t *Tree) addChildOutputs(m []float64) {
	for _, c := range t.childList {
		m[t.parent[c]] += t.out[c]
	}
}

// Depths returns the depth of every node (root = 0).
func (t *Tree) Depths() []int32 {
	d := make([]int32, t.Len())
	for _, v := range t.TopDown() {
		if p := t.parent[v]; p != None {
			d[v] = d[p] + 1
		}
	}
	return d
}

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree) Height() int {
	h := int32(0)
	for _, d := range t.Depths() {
		if d > h {
			h = d
		}
	}
	return int(h) + 1
}

// TopDown returns the nodes in an order where parents precede children
// (BFS from the root).
func (t *Tree) TopDown() []NodeID {
	ord := make([]NodeID, 0, t.Len())
	ord = append(ord, t.root)
	for i := 0; i < len(ord); i++ {
		ord = append(ord, t.Children(ord[i])...)
	}
	return ord
}

// PostOrderNatural returns a postorder traversal visiting children in ID
// order; it is a valid topological order (children before parents).
func (t *Tree) PostOrderNatural() []NodeID {
	ord := make([]NodeID, 0, t.Len())
	// Iterative DFS with explicit child cursor.
	type frame struct {
		node NodeID
		next int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Children(f.node)
		if f.next < len(kids) {
			c := kids[f.next]
			f.next++
			stack = append(stack, frame{c, 0})
			continue
		}
		ord = append(ord, f.node)
		stack = stack[:len(stack)-1]
	}
	return ord
}

// SubtreeWork returns, for every node, the total processing time of its
// subtree (T_i in Appendix A of the paper).
func (t *Tree) SubtreeWork() []float64 {
	w := make([]float64, t.Len())
	td := t.TopDown()
	for i := len(td) - 1; i >= 0; i-- {
		v := td[i]
		w[v] += t.time[v]
		if p := t.parent[v]; p != None {
			w[p] += w[v]
		}
	}
	return w
}

// TotalWork returns the sum of all processing times.
func (t *Tree) TotalWork() float64 {
	s := 0.0
	for _, x := range t.time {
		s += x
	}
	return s
}

// BottomLevels returns, for every node, the length of the path from the node
// to the root inclusive (the classical bottom-level of an in-tree, used by
// the critical-path orders).
func (t *Tree) BottomLevels() []float64 {
	bl := make([]float64, t.Len())
	for _, v := range t.TopDown() {
		if p := t.parent[v]; p != None {
			bl[v] = bl[p] + t.time[v]
		} else {
			bl[v] = t.time[v]
		}
	}
	return bl
}

// CriticalPath returns the length of the longest leaf-to-root path, a
// classical makespan lower bound: the largest of BottomLevels, taken
// once when the tree is built.
func (t *Tree) CriticalPath() float64 { return t.cp }

// MaxDegree returns the largest number of children of any node.
func (t *Tree) MaxDegree() int {
	d := 0
	for i := 0; i < t.Len(); i++ {
		if k := t.Degree(NodeID(i)); k > d {
			d = k
		}
	}
	return d
}

// Stats summarises structural properties of a tree.
type Stats struct {
	Nodes     int
	Leaves    int
	Height    int
	MaxDegree int
	TotalWork float64
	MaxNeed   float64 // largest MemNeeded of any single node
}

// ComputeStats gathers Stats in O(n).
func (t *Tree) ComputeStats() Stats {
	s := Stats{Nodes: t.Len(), Height: t.Height(), MaxDegree: t.MaxDegree()}
	need := t.MemNeededAll()
	for i := 0; i < t.Len(); i++ {
		id := NodeID(i)
		if t.IsLeaf(id) {
			s.Leaves++
		}
		s.TotalWork += t.time[i]
		if need[i] > s.MaxNeed {
			s.MaxNeed = need[i]
		}
	}
	return s
}

// WithTimes returns a tree that shares the structure (parents, CSR
// children index) and data sizes of t but carries the given processing
// times. It is the substrate of the duration-uncertainty experiments
// (internal/perturb): schedulers are built from the nominal tree while
// the simulator executes a WithTimes realisation, and because the two
// trees agree on every memory attribute the memory accounting and the
// Theorem 1 bound carry over unchanged. Beyond validating tm it costs one
// walk, which retakes the critical path under the new times.
func (t *Tree) WithTimes(tm []float64) (*Tree, error) {
	if len(tm) != t.Len() {
		return nil, fmt.Errorf("tree: %d times for %d nodes", len(tm), t.Len())
	}
	for i, v := range tm {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("tree: node %d has invalid time %v", i, v)
		}
	}
	nt := *t
	nt.time = tm
	nt.walk()
	return &nt, nil
}

// Validate re-checks structural invariants plus attribute sanity (no
// NaN or infinity, no negative sizes or times — strconv parses "inf"
// and "nan" without error, so hostile text reaches here). New already
// guarantees shape invariants; Validate is for trees read from disk or
// produced by transforms.
func (t *Tree) Validate() error {
	for i := 0; i < t.Len(); i++ {
		if t.exec[i] < 0 || t.out[i] < 0 || t.time[i] < 0 {
			return fmt.Errorf("tree: node %d has negative attribute", i)
		}
		if math.IsNaN(t.exec[i]) || math.IsNaN(t.out[i]) || math.IsNaN(t.time[i]) {
			return fmt.Errorf("tree: node %d has NaN attribute", i)
		}
		if math.IsInf(t.exec[i], 0) || math.IsInf(t.out[i], 0) || math.IsInf(t.time[i], 0) {
			return fmt.Errorf("tree: node %d has infinite attribute", i)
		}
	}
	cp := make([]NodeID, len(t.parent))
	copy(cp, t.parent)
	check := &Tree{parent: cp, exec: t.exec, out: t.out, time: t.time, root: None}
	return check.index()
}
