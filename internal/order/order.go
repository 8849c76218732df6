// Package order computes activation and execution orders for task trees,
// and evaluates the memory behaviour of sequential traversals.
//
// The paper uses four named orders (§7.2/§7.3.1):
//
//   - memPO: the postorder traversal minimising peak memory (Liu 1986),
//   - perfPO: a postorder scheduling subtrees with larger critical paths
//     first, designed for parallel performance,
//   - CP: nodes by decreasing bottom-level (critical path priority; not a
//     topological order, only usable as an execution order),
//   - OptSeq: the optimal sequential traversal, not necessarily a
//     postorder, minimising peak memory (Liu 1987, generalised pebbling).
//
// Appendix A adds the average-memory-minimising postorder (Smith's rule on
// T_i/f_i), available here as AvgMemPostOrder.
package order

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/tree"
)

// Order is a priority over tasks, optionally backed by an explicit
// sequence. Activation orders must be topological (Seq valid); execution
// orders only need ranks.
type Order struct {
	// Name identifies the strategy that produced the order.
	Name string
	// Seq lists the tasks in order. For topological orders children appear
	// before parents.
	Seq []tree.NodeID
	// Topological records whether Seq is a valid topological order.
	Topological bool

	// identity marks an order from Identities: Seq is 0, 1, …, n−1.
	identity bool

	rankOnce sync.Once
	rank     []int32

	topoMu   sync.Mutex
	topoTree *tree.Tree
	topoOK   bool
}

// TopologicalFor reports whether the order is a valid topological order
// of t, memoizing the verification per tree: scheduler constructors
// validate their activation order on every construction, and the O(n)
// IsTopological scan (plus its position buffer) dominated construction
// of schedulers on large trees. Safe for concurrent use; orders are
// shared between the sweep engine's workers. The memoisation amortises
// IsTopological's position buffer to one allocation per (order, tree)
// pair, so hot callers (Rebind, on the admission path) may use it.
//
// An identity order needs no memo: it is topological exactly when every
// node's ID is below its parent's, which a laid-out tree guarantees and
// any other tree is checked for without allocating. Nor is a laid-out
// tree ever memoized, since its storage may be laid out again under the
// same pointer.
func (o *Order) TopologicalFor(t *tree.Tree) bool {
	if !o.Topological {
		return false
	}
	if o.identity {
		return len(o.Seq) == t.Len() && (t.LaidOut() || childrenFirst(t))
	}
	o.topoMu.Lock()
	defer o.topoMu.Unlock()
	if o.topoTree != t || t.LaidOut() {
		o.topoOK = IsTopological(t, o.Seq)
		o.topoTree = t
	}
	return o.topoOK
}

// Rank returns the position of every task in the order; lower means
// earlier (higher priority). The slice is cached and must not be
// modified. Rank is safe for concurrent use: orders are shared between
// the sweep engine's workers.
func (o *Order) Rank() []int32 {
	if o.identity {
		return o.rank // shared, set by Identities
	}
	o.rankOnce.Do(func() {
		o.rank = make([]int32, len(o.Seq))
		for i, v := range o.Seq {
			o.rank[v] = int32(i)
		}
	})
	return o.rank
}

// childrenFirst reports whether every node of t precedes its parent in
// ID order, that is, whether the identity is a topological order of t.
func childrenFirst(t *tree.Tree) bool {
	for i := 0; i < t.Len(); i++ {
		if p := t.Parent(tree.NodeID(i)); p != tree.None && int(p) < i {
			return false
		}
	}
	return true
}

// Identities hands out identity orders — Seq is 0, 1, …, n−1 and every
// node is its own rank — the activation and execution order of a tree
// laid out in its activation order (tree.Tree.LayOut). All the orders
// share two backing arrays, so one costs O(n) once, for the largest n
// asked for, and O(1) per further size: none is built per use, and none
// pays Rank's or IsTopological's O(n) buffers. The zero value is ready
// to use. Identities is not safe for concurrent use; the orders it
// returns are immutable and may be shared.
type Identities struct {
	seq   []tree.NodeID
	rank  []int32
	byLen map[int]*Order
}

// Order returns the identity order over n ≥ 1 nodes.
func (id *Identities) Order(n int) *Order {
	if o := id.byLen[n]; o != nil {
		return o
	}
	if n > len(id.seq) {
		// Earlier orders keep the arrays they slice.
		c := 1 << tree.SizeClass(n)
		id.seq, id.rank = make([]tree.NodeID, c), make([]int32, c)
		for i := range id.seq {
			id.seq[i], id.rank[i] = tree.NodeID(i), int32(i)
		}
	}
	if id.byLen == nil {
		id.byLen = make(map[int]*Order)
	}
	o := &Order{Name: "identity", Seq: id.seq[:n:n], Topological: true, identity: true, rank: id.rank[:n:n]}
	id.byLen[n] = o
	return o
}

// IsTopological verifies that seq is a permutation of the tree's tasks in
// which every node appears before its parent.
func IsTopological(t *tree.Tree, seq []tree.NodeID) bool {
	if len(seq) != t.Len() {
		return false
	}
	pos := make([]int32, t.Len())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range seq {
		if v < 0 || int(v) >= t.Len() || pos[v] != -1 {
			return false
		}
		pos[v] = int32(i)
	}
	for i := 0; i < t.Len(); i++ {
		if p := t.Parent(tree.NodeID(i)); p != tree.None && pos[i] > pos[p] {
			return false
		}
	}
	return true
}

// sortByKeyDesc stably sorts ids by non-increasing key[id]. Child lists
// are short in practice, so small segments use an insertion sort instead
// of paying sort.SliceStable's interface indirection.
func sortByKeyDesc(ids []tree.NodeID, key []float64) {
	if len(ids) <= 16 {
		for i := 1; i < len(ids); i++ {
			v := ids[i]
			k := key[v]
			j := i - 1
			for j >= 0 && key[ids[j]] < k {
				ids[j+1] = ids[j]
				j--
			}
			ids[j+1] = v
		}
		return
	}
	sort.SliceStable(ids, func(a, b int) bool { return key[ids[a]] > key[ids[b]] })
}

// postOrderCSR traverses the tree in postorder visiting children in the
// order given by the (already sorted) CSR child lists.
func postOrderCSR(t *tree.Tree, sorted []tree.NodeID, start []int32) []tree.NodeID {
	ord := make([]tree.NodeID, 0, t.Len())
	type frame struct {
		node tree.NodeID
		next int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{t.Root(), 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < start[f.node+1]-start[f.node] {
			c := sorted[start[f.node]+f.next]
			f.next++
			stack = append(stack, frame{c, 0})
			continue
		}
		ord = append(ord, f.node)
		stack = stack[:len(stack)-1]
	}
	return ord
}

// postOrderSorted produces a postorder traversal where the children of
// every node are visited by decreasing key.
func postOrderSorted(t *tree.Tree, key []float64) []tree.NodeID {
	sorted, start := t.ChildCSR()
	for i := 0; i < t.Len(); i++ {
		sortByKeyDesc(sorted[start[i]:start[i+1]], key)
	}
	return postOrderCSR(t, sorted, start)
}

// NaturalPostOrder returns the postorder visiting children in ID order.
func NaturalPostOrder(t *tree.Tree) *Order {
	return &Order{Name: "naturalPO", Seq: t.PostOrderNatural(), Topological: true}
}

// MinMemPostOrder returns Liu's peak-memory-minimising postorder (memPO in
// the paper) and its sequential peak memory. Children are processed by
// non-increasing P_j − f_j, where P_j is the optimal postorder peak of the
// child subtree.
func MinMemPostOrder(t *tree.Tree) (*Order, float64) {
	n := t.Len()
	peak := make([]float64, n) // P_i per subtree
	key := make([]float64, n)  // P_i − f_i, the sort key
	// Children are sorted once, in place in a shared CSR, during the
	// bottom-up peak computation (the keys of v's children are final when
	// v is reached); the traversal below reuses the sorted lists instead
	// of sorting a second copy.
	sorted, start := t.ChildCSR()
	td := t.TopDown()
	for i := n - 1; i >= 0; i-- {
		v := td[i]
		kids := sorted[start[v]:start[v+1]]
		// Fanout ≤ 2 is the common case on sparse-assembly trees (nested
		// dissection yields near-binary trees): ordering those inline
		// avoids the sort call for the bulk of the nodes.
		switch len(kids) {
		case 0, 1:
		case 2:
			if key[kids[1]] > key[kids[0]] {
				kids[0], kids[1] = kids[1], kids[0]
			}
		default:
			sortByKeyDesc(kids, key)
		}
		acc := 0.0
		p := 0.0
		for _, c := range kids {
			if m := acc + peak[c]; m > p {
				p = m
			}
			acc += t.Out(c)
		}
		if m := acc + t.Exec(v) + t.Out(v); m > p {
			p = m
		}
		peak[v] = p
		key[v] = p - t.Out(v)
	}
	// A postorder of t by construction, so TopologicalFor(t) starts out
	// verified: the scheduler built on it skips IsTopological's scan.
	o := &Order{Name: "memPO", Seq: postOrderCSR(t, sorted, start), Topological: true,
		topoTree: t, topoOK: true}
	return o, peak[t.Root()]
}

// PerfPostOrder returns the performance postorder (perfPO): subtrees with
// larger critical paths are scheduled first, giving long paths priority in
// a parallel execution.
func PerfPostOrder(t *tree.Tree) *Order {
	n := t.Len()
	cp := make([]float64, n) // critical path of the subtree rooted at i
	td := t.TopDown()
	for i := n - 1; i >= 0; i-- {
		v := td[i]
		longest := 0.0
		for _, c := range t.Children(v) {
			if cp[c] > longest {
				longest = cp[c]
			}
		}
		cp[v] = longest + t.Time(v)
	}
	return &Order{Name: "perfPO", Seq: postOrderSorted(t, cp), Topological: true}
}

// AvgMemPostOrder returns the postorder minimising the average memory
// usage (Appendix A): subtrees are processed by non-increasing T_j / f_j,
// where T_j is the total processing time of the subtree. A zero output
// size sorts first (infinite ratio).
func AvgMemPostOrder(t *tree.Tree) *Order {
	work := t.SubtreeWork()
	key := make([]float64, t.Len())
	for i := range key {
		f := t.Out(tree.NodeID(i))
		if f == 0 {
			key[i] = math.Inf(1)
		} else {
			key[i] = work[i] / f
		}
	}
	return &Order{Name: "avgMemPO", Seq: postOrderSorted(t, key), Topological: true}
}

// CriticalPathOrder returns tasks by non-increasing bottom-level (the time
// from the start of the task to the end of the root along the tree). It is
// a priority order for execution, not a topological order.
func CriticalPathOrder(t *tree.Tree) *Order {
	bl := t.BottomLevels()
	seq := make([]tree.NodeID, t.Len())
	for i := range seq {
		seq[i] = tree.NodeID(i)
	}
	sort.SliceStable(seq, func(a, b int) bool { return bl[seq[a]] > bl[seq[b]] })
	return &Order{Name: "CP", Seq: seq, Topological: false}
}

// PeakMemory returns the peak memory of the sequential execution of seq,
// which must be a topological order of t. At any instant the memory holds
// the outputs of all produced-but-unconsumed tasks plus the execution and
// output data of the running task.
func PeakMemory(t *tree.Tree, seq []tree.NodeID) (float64, error) {
	if !IsTopological(t, seq) {
		return 0, fmt.Errorf("order: sequence is not a topological order")
	}
	frontier := 0.0
	peak := 0.0
	for _, v := range seq {
		if m := frontier + t.Exec(v) + t.Out(v); m > peak {
			peak = m
		}
		frontier += t.Out(v)
		for _, c := range t.Children(v) {
			frontier -= t.Out(c)
		}
	}
	return peak, nil
}

// AvgMemory returns the time-averaged memory usage of the sequential
// execution of seq (Appendix A). Tasks with zero processing time do not
// contribute.
func AvgMemory(t *tree.Tree, seq []tree.NodeID) (float64, error) {
	if !IsTopological(t, seq) {
		return 0, fmt.Errorf("order: sequence is not a topological order")
	}
	frontier := 0.0
	integral := 0.0
	total := 0.0
	for _, v := range seq {
		integral += (frontier + t.Exec(v) + t.Out(v)) * t.Time(v)
		total += t.Time(v)
		frontier += t.Out(v)
		for _, c := range t.Children(v) {
			frontier -= t.Out(c)
		}
	}
	if total == 0 {
		return 0, nil
	}
	return integral / total, nil
}

// Names of the orders understood by ByName.
const (
	NameMemPO    = "memPO"
	NamePerfPO   = "perfPO"
	NameCP       = "CP"
	NameOptSeq   = "OptSeq"
	NameNatural  = "naturalPO"
	NameAvgMemPO = "avgMemPO"
)

// ByName computes the named order. For memPO and OptSeq the second result
// is the sequential peak memory of the order; it is zero for the others.
func ByName(t *tree.Tree, name string) (*Order, float64, error) {
	switch name {
	case NameMemPO:
		o, p := MinMemPostOrder(t)
		return o, p, nil
	case NamePerfPO:
		return PerfPostOrder(t), 0, nil
	case NameCP:
		return CriticalPathOrder(t), 0, nil
	case NameOptSeq:
		o, p := OptSeq(t)
		return o, p, nil
	case NameNatural:
		return NaturalPostOrder(t), 0, nil
	case NameAvgMemPO:
		return AvgMemPostOrder(t), 0, nil
	}
	return nil, 0, fmt.Errorf("order: unknown order %q", name)
}
