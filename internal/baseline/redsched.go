package baseline

import (
	"fmt"

	"repro/internal/order"
	"repro/internal/tree"
)

// MemBookingRedTree is the booking strategy for reduction trees (§3.2,
// after Eyraud-Dubois, Marchal, Sinnen, Vivien, TOPC 2015). The input
// tree is first transformed into a reduction tree by adding fictitious
// leaves (see ToReductionTree); the scheduler then books, at activation
// of each node i and in AO order, a statically computed amount
//
//	A_i = max(0, Book(i) − Σ_children Book(j))
//	Book(i) = max(Σ_children Book(j), Σ_children f_j + f_i)
//
// so that once a subtree is fully activated it can always run to
// completion inside its own booked memory. When a node finishes it keeps
// its output plus a precomputed transmission Up(i) booked for its
// ancestors and frees the rest. The strategy correctly predicts subtree
// memory on reduction trees, but on transformed general trees the
// fictitious data make it book more than necessary — it performs like
// Activation and can fail to complete under tight bounds, which is
// exactly the behaviour the paper reports.
type MemBookingRedTree struct {
	red *RedTree
	act Activator

	aoSeq []tree.NodeID // activation order on the transformed tree
	eo    *order.Order  // execution order on the transformed tree

	a    []float64 // A_i: booked at activation
	up   []float64 // Up(i): kept booked for ancestors after i finishes
	keep []float64 // f_i + Up(i): kept booked when i finishes
	pool []float64 // booked memory attributed to i's completed children + A_i
}

// NewMemBookingRedTree builds the scheduler from the original tree and
// orders expressed on the original tree; fictitious nodes are slotted
// immediately before their parent in both orders.
func NewMemBookingRedTree(t *tree.Tree, m float64, ao, eo *order.Order) (*MemBookingRedTree, error) {
	if !ao.TopologicalFor(t) {
		return nil, fmt.Errorf("redtree: activation order %q is not topological", ao.Name)
	}
	if len(eo.Seq) != t.Len() {
		return nil, fmt.Errorf("redtree: execution order %q covers %d of %d tasks", eo.Name, len(eo.Seq), t.Len())
	}
	red := ToReductionTree(t)
	s := &MemBookingRedTree{red: red}
	if err := s.Reset(m); err != nil {
		return nil, err
	}
	// One fictitious-child index serves both order extensions (the map
	// this replaced was rebuilt per order and dominated construction on
	// large trees).
	fict := make([]tree.NodeID, red.Orig)
	for i := range fict {
		fict[i] = tree.None
	}
	for k, p := range red.FicParent {
		fict[p] = tree.NodeID(red.Orig + k)
	}
	s.aoSeq = extendSeq(red, fict, ao.Seq)
	s.eo = &order.Order{Seq: extendSeq(red, fict, eo.Seq)}
	return s, nil
}

// extendSeq inserts every fictitious leaf immediately before its parent
// in seq (a sequence over original node IDs). fict maps an original node
// to its fictitious child (None if it has none).
func extendSeq(red *RedTree, fict []tree.NodeID, seq []tree.NodeID) []tree.NodeID {
	out := make([]tree.NodeID, 0, red.Tree.Len())
	for _, v := range seq {
		if f := fict[v]; f != tree.None {
			out = append(out, f)
		}
		out = append(out, v)
	}
	return out
}

// Tree returns the transformed reduction tree the scheduler must be
// executed on (it contains the fictitious zero-time tasks).
func (s *MemBookingRedTree) Tree() *tree.Tree { return s.red.Tree }

// Name implements core.Scheduler.
func (s *MemBookingRedTree) Name() string { return "MemBookingRedTree" }

// BookedMemory implements core.Scheduler.
func (s *MemBookingRedTree) BookedMemory() float64 { return s.act.Booked() }

// Init implements core.Scheduler: it computes the static booking plan
// on the first call and activates the first nodes. The plan depends only
// on the tree, so a later Init (after a run, or a Reset to a new bound)
// keeps it and rebuilds only the run state, in place.
func (s *MemBookingRedTree) Init() error {
	// pool is allocated once the (fallible) plan is complete, so a failed
	// first Init leaves nothing half-built behind this guard.
	if s.pool == nil {
		if err := s.plan(); err != nil {
			return err
		}
	}
	clear(s.pool)
	s.act.Start(s.red.Tree, s.aoSeq, s.a, s.eo)
	s.activate()
	return nil
}

// plan computes Book, A, the capacities and the transmissions Up.
func (s *MemBookingRedTree) plan() error {
	rt := s.red.Tree
	n := rt.Len()
	book := make([]float64, n)
	s.a = make([]float64, n)
	s.up = make([]float64, n)
	s.keep = make([]float64, n)
	cap_ := make([]float64, n) // Σ A over subtree − f_i
	td := rt.TopDown()
	for i := n - 1; i >= 0; i-- {
		v := td[i]
		sumBook, sumOut, sumA := 0.0, 0.0, 0.0
		for _, c := range rt.Children(v) {
			sumBook += book[c]
			sumOut += rt.Out(c)
			sumA += cap_[c] + rt.Out(c) // Σ A over child subtree
		}
		book[v] = max(sumBook, sumOut+rt.Out(v))
		s.a[v] = book[v] - sumBook
		cap_[v] = sumA + s.a[v] - rt.Out(v)
	}
	// Transmissions, top-down: each node must still hold Up(i) for its
	// ancestors when it finishes; the root holds nothing.
	for _, v := range td {
		kids := rt.Children(v)
		if len(kids) == 0 {
			continue
		}
		sumOut := 0.0
		for _, c := range kids {
			sumOut += rt.Out(c)
		}
		need := rt.Out(v) - s.a[v] // during-run requirement
		if alt := rt.Out(v) + s.up[v] - s.a[v] - sumOut; alt > need {
			need = alt // retention requirement
		}
		if need < 0 {
			need = 0
		}
		for _, c := range kids {
			give := need
			if cap_[c] < give {
				give = cap_[c]
			}
			if give < 0 {
				give = 0
			}
			s.up[c] = give
			need -= give
		}
		if _, tol := s.act.Bound(); need > tol {
			return fmt.Errorf("redtree: infeasible transmission plan at node %d (short by %g)", v, need)
		}
	}
	for i := 0; i < n; i++ {
		s.keep[i] = rt.Out(tree.NodeID(i)) + s.up[i]
	}
	s.pool = make([]float64, n)
	return nil
}

// Reset rebinds the scheduler to a new memory bound so the same instance
// can be re-run without recomputing the plan or reallocating; the next
// Init rebuilds the run state.
func (s *MemBookingRedTree) Reset(m float64) error { return s.act.Bind("redtree", m) }

// activate books A_i for the next tasks of AO while they fit, and
// attributes each to its node's pool.
func (s *MemBookingRedTree) activate() {
	for _, i := range s.act.Activate() {
		s.pool[i] += s.a[i]
	}
}

// OnFinish implements core.Scheduler: the finished node keeps its output
// and its transmission Up(i) booked, transmits them to the parent's pool
// and frees the rest of its subtree's booked memory.
func (s *MemBookingRedTree) OnFinish(batch []tree.NodeID) {
	rt := s.red.Tree
	for _, j := range batch {
		keep := s.keep[j]
		freed := s.pool[j] - keep
		if freed < 0 {
			freed = 0
		}
		s.act.Free(freed)
		if p := rt.Parent(j); p != tree.None {
			s.pool[p] += keep
			s.act.Release(p)
		} else {
			s.act.Free(keep)
		}
	}
	s.activate()
}

// Select implements core.Scheduler.
func (s *MemBookingRedTree) Select(free int) []tree.NodeID { return s.act.Select(free) }
