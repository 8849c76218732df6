// Package baseline implements the two state-of-the-art competitors the
// paper compares MemBooking against (§3): the simple Activation policy of
// Agullo et al. (Algorithm 1) and the booking strategy for reduction
// trees of Eyraud-Dubois et al. (MemBookingRedTree), including the
// general-tree → reduction-tree transformation it requires. Both run on
// one Activator, Algorithm 1's cursor, and differ only in what a task
// books and what a finished task frees; the distributed domains run on it
// too.
package baseline

import (
	"fmt"

	"repro/internal/order"
	"repro/internal/tree"
)

// Activation is the simple activation heuristic (Algorithm 1): a task is
// activated, in AO order, by booking its execution and output data
// (n_i + f_i) in full; the outputs of finished children stay booked until
// the parent completes. Activated tasks whose children are finished are
// executed by EO priority. The policy is safe but conservative: it books
// memory for every activated task even when precedence constraints make
// simultaneous execution impossible.
type Activation struct {
	t      *tree.Tree
	ao, eo *order.Order
	act    Activator

	// Per-node amounts, computed once per tree: actNeed[i] = n_i + f_i is
	// booked at activation, finFree[i] = n_i + Σ_children f_c is freed
	// when i finishes.
	actNeed []float64
	finFree []float64
}

// NewActivation builds the Activation scheduler. ao must be topological.
func NewActivation(t *tree.Tree, m float64, ao, eo *order.Order) (*Activation, error) {
	if !ao.TopologicalFor(t) {
		return nil, fmt.Errorf("activation: activation order %q is not topological", ao.Name)
	}
	if len(eo.Seq) != t.Len() {
		return nil, fmt.Errorf("activation: execution order %q covers %d of %d tasks", eo.Name, len(eo.Seq), t.Len())
	}
	s := &Activation{t: t, ao: ao, eo: eo}
	if err := s.Reset(m); err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements core.Scheduler.
func (s *Activation) Name() string { return "Activation" }

// BookedMemory implements core.Scheduler.
func (s *Activation) BookedMemory() float64 { return s.act.Booked() }

// Init implements core.Scheduler. Calling it again after a run rebuilds
// the state in place, reusing the O(n) slices and the ready set.
func (s *Activation) Init() error {
	if s.actNeed == nil {
		s.actNeed = make([]float64, s.t.Len())
		s.finFree = make([]float64, s.t.Len())
		for i := range s.actNeed {
			id := tree.NodeID(i)
			s.actNeed[i] = s.t.Exec(id) + s.t.Out(id)
			s.finFree[i] = s.t.Exec(id)
		}
		for i := range s.actNeed {
			if p := s.t.Parent(tree.NodeID(i)); p != tree.None {
				s.finFree[p] += s.t.Out(tree.NodeID(i))
			}
		}
	}
	s.act.Start(s.t, s.ao.Seq, s.actNeed, s.eo)
	s.act.Activate()
	return nil
}

// Reset rebinds the scheduler to a new memory bound so the same instance
// can be re-run without reallocating; the next Init rebuilds the state.
func (s *Activation) Reset(m float64) error { return s.act.Bind("activation", m) }

// OnFinish implements core.Scheduler: the finished task's execution data
// and its children's outputs are freed (its own output stays booked for
// the parent), then activation resumes.
func (s *Activation) OnFinish(batch []tree.NodeID) {
	for _, j := range batch {
		s.act.Free(s.finFree[j])
		if p := s.t.Parent(j); p != tree.None {
			s.act.Release(p)
		}
	}
	s.act.Activate()
}

// Select implements core.Scheduler.
func (s *Activation) Select(free int) []tree.NodeID { return s.act.Select(free) }
