package baseline

import (
	"fmt"
	"math"

	"repro/internal/order"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Activator is the cursor of Algorithm 1 under both baselines and the
// distributed domains: it activates tasks in AO order while their
// booking fits under the bound, readies a task once it is activated and
// every input is present, and hands ready tasks out by EO rank. What an
// activation books is its owner's need array; what a finished task
// frees, and when an input is present, is its owner's finish rule (Free
// and Release). A run needs Bind, then Start or Join.
type Activator struct {
	seq     []tree.NodeID // tasks in AO order; seq[next] activates next
	next    int
	need    []float64 // need[i] is booked when i activates
	active  []bool
	pending []int32        // inputs of each task not yet present
	rank    []int32        // EO rank of each task
	eo      []tree.NodeID  // tasks in EO order: eo[rank[i]] = i
	ready   pqueue.RankSet // EO ranks of the ready tasks
	booked  float64
	m, eps  float64
	sel     []tree.NodeID // reusable Select result buffer
}

// Bind sets the memory bound m, with a tolerance that lets a booking of
// exactly m survive floating-point rounding. It refuses, naming the
// scheduler, a negative or NaN bound.
func (a *Activator) Bind(name string, m float64) error {
	if m < 0 || math.IsNaN(m) {
		return fmt.Errorf("%s: invalid memory bound %v", name, m)
	}
	a.m, a.eps = m, 1e-9*(1+math.Abs(m))
	return nil
}

// Bound returns the memory bound and its tolerance.
func (a *Activator) Bound() (m, tol float64) { return a.m, a.eps }

// Start begins a run over seq, tasks of t in AO order, that books
// need[i] when i activates and hands ready tasks out in eo: nothing is
// activated, booked or ready, and every task of t waits for all its
// children. It keeps the storage of the previous run.
func (a *Activator) Start(t *tree.Tree, seq []tree.NodeID, need []float64, eo *order.Order) {
	if n := t.Len(); len(a.pending) != n {
		a.active, a.pending = make([]bool, n), make([]int32, n)
	}
	for i := range a.pending {
		a.active[i] = false
		a.pending[i] = int32(t.Degree(tree.NodeID(i)))
	}
	a.need, a.rank, a.eo = need, eo.Rank(), eo.Seq
	a.Join(a, seq)
}

// Join begins a run over seq, other tasks of o's tree, sharing o's need,
// execution order, activation flags and input counters. A task is
// readied by the activator whose seq holds it.
func (a *Activator) Join(o *Activator, seq []tree.NodeID) {
	a.seq, a.next, a.booked = seq, 0, 0
	a.need, a.rank, a.eo, a.active, a.pending = o.need, o.rank, o.eo, o.active, o.pending
	a.ready.Reset(len(o.rank))
}

// Booked returns the memory booked.
func (a *Activator) Booked() float64 { return a.booked }

// Book books x if it fits under the bound, and reports whether it did.
func (a *Activator) Book(x float64) bool {
	if a.booked+x > a.m+a.eps {
		return false
	}
	a.booked += x
	return true
}

// Free unbooks x.
func (a *Activator) Free(x float64) { a.booked -= x }

// Activate activates the next tasks of AO while their need fits, readies
// those with every input present, and returns the ones it activated.
func (a *Activator) Activate() []tree.NodeID {
	from := a.next
	for ; a.next < len(a.seq); a.next++ {
		i := a.seq[a.next]
		if !a.Book(a.need[i]) {
			break
		}
		a.active[i] = true
		if a.pending[i] == 0 {
			a.ready.Push(a.rank[i])
		}
	}
	return a.seq[from:a.next]
}

// Release counts one input of p present, and readies p once every input
// is and p is activated.
func (a *Activator) Release(p tree.NodeID) {
	a.pending[p]--
	if a.pending[p] == 0 && a.active[p] {
		a.ready.Push(a.rank[p])
	}
}

// Select pops up to free ready tasks in EO order, into a buffer the next
// call reuses.
func (a *Activator) Select(free int) []tree.NodeID {
	if free <= 0 || a.ready.Len() == 0 {
		return nil
	}
	out := a.sel[:0]
	for ; free > 0 && a.ready.Len() > 0; free-- {
		out = append(out, a.eo[a.ready.PopMin()])
	}
	a.sel = out
	return out
}
