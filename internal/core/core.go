// Package core implements the paper's primary contribution: the
// MemBooking dynamic scheduler (Algorithms 2–4, in the optimised form of
// Appendix B, Algorithms 5–6) for executing task trees on p processors
// under a hard shared-memory bound M.
//
// A Scheduler is driven by an execution engine (the discrete-event
// simulator in package sim, or the live executor in package executor):
// the engine reports batches of task completions and asks the scheduler
// which tasks to launch. All memory decisions — booking, transfer of
// booked memory between ancestors, activation — live in the scheduler.
package core

import (
	"fmt"
	"math"

	"repro/internal/order"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Scheduler is a dynamic memory-aware scheduling policy.
//
// The engine contract: Init is called once before time 0; OnFinish is
// called with every batch of tasks that completed at the same instant;
// Select is called whenever processors are free and returns at most
// `free` tasks, which the engine immediately starts. A scheduler must
// never return a task whose children have not all finished, and must
// guarantee that the model memory in use never exceeds the bound it was
// constructed with.
type Scheduler interface {
	// Name identifies the policy (for reports).
	Name() string
	// Init prepares internal state and performs the initial activation.
	Init() error
	// OnFinish records that the given tasks completed. All tasks in one
	// call completed at the same time instant.
	OnFinish(batch []tree.NodeID)
	// Select returns at most free tasks to start now. Returned tasks are
	// running from the engine's point of view. The returned slice may be
	// reused by the scheduler: it is only valid until the next Select
	// call, and engines must consume it before asking again.
	Select(free int) []tree.NodeID
	// BookedMemory returns the total memory currently booked.
	BookedMemory() float64
}

// Node states, in the order the paper presents them (§4). The paper's
// UN and CAND states are one here: the candidate is always the node at
// the activation cursor (see the aoPos field comment).
const (
	stateUN  uint8 = iota // not yet activated
	stateACT              // activated: enough memory booked in the subtree
	stateRUN              // running
	stateFN               // finished
)

// MemBooking is the paper's new scheduler. It activates nodes following a
// topological activation order AO, booking only the memory the node's
// subtree cannot provide, and on every task completion re-dispatches the
// freed memory to the ancestors as late as possible (ALAP). It is
// guaranteed to complete the tree whenever the sequential execution of AO
// stays within M (Theorem 1).
type MemBooking struct {
	t  *tree.Tree
	m  float64
	ao *order.Order
	eo *order.Order

	need    []float64 // MemNeeded per node
	booked  []float64 // Booked[i]
	bbs     []float64 // BookedBySubtree[i]; -1 = not yet computed
	mbooked float64   // Σ Booked

	// childSum[i] caches Σ bbs[c] over the children c of i whose bbs is
	// initialised (an uninitialised bbs counts as zero). Every mutation
	// of bbs[c] — the ALAP dispatch walk, a task finishing, lazy
	// initialisation and activation — goes through setBBS, which keeps
	// the parent's aggregate in sync, so the candidate head's missing
	// memory and the post-activation BookedBySubtree are O(1) reads
	// instead of O(degree) child re-scans.
	childSum []float64

	state    []uint8
	chNotFin []int32 // children not finished

	// aoPos is the activation cursor: the position in AO.Seq of the next
	// node to activate. Because the activation order is topological, the
	// children of Seq[aoPos] all precede it in the sequence; once every
	// node before the cursor is activated, Seq[aoPos] is necessarily a
	// candidate, so the set of activated nodes is always exactly the
	// prefix Seq[:aoPos] and the paper's CAND heap degenerates to this
	// cursor — activation costs O(1) per node instead of O(log n) heap
	// maintenance (with its random rank-array accesses), which profiles
	// showed dominating Init on high-fanout trees.
	aoPos int

	actf      pqueue.RankSet // EO ranks of the activated tasks whose children have finished
	rank      []int32        // EO rank of each task
	remaining int
	selbuf    []tree.NodeID // reusable Select result buffer

	// eps is the tolerance for the memory-bound comparison so that
	// booking exactly M survives floating-point rounding.
	eps float64

	// Ablation knobs (see ablation.go); zero values are the paper's
	// algorithm.
	dispatch     DispatchPolicy
	recomputeBBS bool

	// transient is extra memory reserved outside the per-node booking
	// (per-processor workspaces of moldable tasks, §8 extension). It
	// counts against the bound but not against the Lemma invariants.
	transient float64

	// CheckInvariants, when set before Init, re-verifies the Lemma 2–5
	// invariants after every event; the first violation is recorded in
	// InvariantErr. Meant for tests; expensive (O(n) per event).
	CheckInvariants bool
	InvariantErr    error
}

// NewMemBooking builds a MemBooking scheduler for tree t with memory
// bound m, activation order ao (must be topological) and execution order
// eo (any priority over the tasks).
func NewMemBooking(t *tree.Tree, m float64, ao, eo *order.Order) (*MemBooking, error) {
	if !ao.TopologicalFor(t) {
		return nil, fmt.Errorf("membooking: activation order %q is not topological", ao.Name)
	}
	if len(eo.Seq) != t.Len() {
		return nil, fmt.Errorf("membooking: execution order %q covers %d of %d tasks", eo.Name, len(eo.Seq), t.Len())
	}
	if m < 0 || math.IsNaN(m) {
		return nil, fmt.Errorf("membooking: invalid memory bound %v", m)
	}
	return &MemBooking{t: t, m: m, ao: ao, eo: eo}, nil
}

// Name implements Scheduler.
func (s *MemBooking) Name() string { return "MemBooking" }

// BookedMemory implements Scheduler.
func (s *MemBooking) BookedMemory() float64 { return s.mbooked + s.transient }

// ReserveTransient books extra memory outside the per-task accounting —
// the per-processor workspace of a moldable task (§8 extension). It
// returns false, reserving nothing, if the bound would be exceeded.
func (s *MemBooking) ReserveTransient(amount float64) bool {
	if amount < 0 || s.mbooked+s.transient+amount > s.m+s.eps {
		return false
	}
	s.transient += amount
	return true
}

// ReleaseTransient returns memory taken with ReserveTransient.
func (s *MemBooking) ReleaseTransient(amount float64) {
	s.transient -= amount
	if s.transient < 0 {
		s.transient = 0
	}
}

// alloc gives the scheduler the six O(n) state arrays of its tree,
// with room for c nodes.
// Init and Restore size a fresh instance exactly (c = n); Rebind and the
// pool round c up to the size class so a recycled instance serves it.
func (s *MemBooking) alloc(c int) {
	n := s.t.Len()
	s.need = s.t.MemNeededInto(make([]float64, n, c))
	s.booked = make([]float64, n, c)
	s.bbs = make([]float64, n, c)
	s.childSum = make([]float64, n, c)
	s.state = make([]uint8, n, c)
	s.chNotFin = make([]int32, n, c)
}

// Init implements Scheduler: it marks every node unactivated and runs
// the first activation round. Init may be called again after a run (and
// after an optional Reset to a new bound): the second and later calls
// rebuild the run state in place, reusing the six O(n) slices and the
// ready set, so re-running a scheduler allocates nothing.
func (s *MemBooking) Init() error {
	n := s.t.Len()
	if s.need == nil {
		s.alloc(n)
	}
	s.rank = s.eo.Rank()
	s.actf.Reset(n)
	s.aoPos = 0
	s.mbooked = 0
	s.transient = 0
	s.remaining = n
	s.eps = 1e-9 * (1 + math.Abs(s.m))
	s.InvariantErr = nil
	for i := 0; i < n; i++ {
		s.booked[i] = 0
		s.bbs[i] = -1
		s.childSum[i] = 0
		s.state[i] = stateUN
		s.chNotFin[i] = int32(s.t.Degree(tree.NodeID(i)))
	}
	s.updateCandAct()
	s.check()
	return nil
}

// Reset rebinds the scheduler to a new memory bound, keeping the tree
// and orders, so the same instance can be re-run without reallocating
// its O(n) state. The next Init call (the engine makes it) rebuilds the
// run state in place.
func (s *MemBooking) Reset(m float64) error {
	if m < 0 || math.IsNaN(m) {
		return fmt.Errorf("membooking: invalid memory bound %v", m)
	}
	s.m = m
	return nil
}

// OnFinish implements Scheduler: Algorithm 6, lines 4–17, followed by the
// activation round (lines 18–30).
func (s *MemBooking) OnFinish(batch []tree.NodeID) {
	for _, j := range batch {
		s.dispatchMemory(j)
	}
	s.updateCandAct()
	s.check()
}

// dispatchMemory frees the memory of the finished node j, keeps its
// output booked at the parent and re-allocates the remainder to the
// ancestors in ACT ∪ RUN (or candidates with an initialised
// BookedBySubtree) as late as possible.
func (s *MemBooking) dispatchMemory(j tree.NodeID) {
	s.state[j] = stateFN
	s.remaining--
	b := s.booked[j]
	s.booked[j] = 0
	s.mbooked -= b

	i := s.t.Parent(j)
	if i == tree.None {
		s.bbs[j] = 0
		return
	}
	// j's subtree no longer books anything: fold its bbs (= Booked[j],
	// all of j's children having finished) out of the parent's aggregate.
	s.childSum[i] -= s.bbs[j]
	s.bbs[j] = 0
	s.chNotFin[i]--
	if s.chNotFin[i] == 0 && s.state[i] == stateACT {
		s.actf.Push(s.rank[i])
	}
	// The output of j survives, booked at its parent.
	fj := s.t.Out(j)
	s.booked[i] += fj
	s.mbooked += fj
	b -= fj
	// ALAP dispatch: hand each ancestor only what its remaining subtree
	// cannot provide later. The paper's policy is inlined on the fast
	// path; the eager ablation goes through contribution.
	alap := s.dispatch == DispatchALAP
	for i != tree.None && s.bbs[i] != -1 && b > s.eps {
		var c float64
		if alap {
			c = s.need[i] - (s.bbs[i] - b)
			if c < 0 {
				c = 0
			} else if c > b {
				c = b
			}
		} else {
			c = s.contribution(int32(i), b)
		}
		s.booked[i] += c
		s.mbooked += c
		b -= c
		// b units of booking left i's subtree for good: keep bbs and the
		// parent's aggregate consistent.
		s.bbs[i] -= b
		p := s.t.Parent(i)
		if p != tree.None {
			s.childSum[p] -= b
		}
		i = p
	}
	// Whatever is left of b is genuinely free memory.
}

// setBBS sets BookedBySubtree of i, keeping the parent's cached child
// aggregate in sync (an uninitialised bbs of -1 counts as zero there).
func (s *MemBooking) setBBS(i tree.NodeID, v float64) {
	old := s.bbs[i]
	if old == -1 {
		old = 0
	}
	s.bbs[i] = v
	if p := s.t.Parent(i); p != tree.None {
		s.childSum[p] += v - old
	}
}

// updateCandAct activates candidates in AO order while the missing memory
// fits under the bound (Algorithm 6, lines 18–30). The candidate head is
// always Seq[aoPos] (see the aoPos field comment), so the round is a
// cursor walk. With the incremental childSum aggregate both
// BookedBySubtree evaluations are O(1); the recomputeBBS ablation knob
// restores the full O(degree) child re-scan (subtreeSum) as a
// correctness oracle for the incremental accounting.
func (s *MemBooking) updateCandAct() {
	seq := s.ao.Seq
	for s.aoPos < len(seq) {
		i := seq[s.aoPos]
		if s.recomputeBBS {
			s.setBBS(i, s.subtreeSum(i))
		} else if s.bbs[i] == -1 {
			s.setBBS(i, s.booked[i]+s.childSum[i])
		}
		missing := s.need[i] - s.bbs[i]
		if missing < 0 {
			missing = 0
		}
		if s.mbooked+s.transient+missing > s.m+s.eps {
			return // wait for more memory
		}
		s.aoPos++
		s.booked[i] += missing
		s.mbooked += missing
		if s.recomputeBBS {
			s.setBBS(i, s.subtreeSum(i))
		} else {
			s.setBBS(i, s.bbs[i]+missing)
		}
		s.state[i] = stateACT
		if s.chNotFin[i] == 0 {
			s.actf.Push(s.rank[i])
		}
	}
}

// subtreeSum recomputes Booked[i] + Σ_{children} BookedBySubtree[j]. All
// children of a candidate are activated (or finished), so their bbs is
// always initialised.
func (s *MemBooking) subtreeSum(i tree.NodeID) float64 {
	sum := s.booked[i]
	for _, c := range s.t.Children(i) {
		sum += s.bbs[c]
	}
	return sum
}

// Select implements Scheduler: it starts the activated, available tasks
// with the highest EO priority.
func (s *MemBooking) Select(free int) []tree.NodeID {
	if free <= 0 || s.actf.Len() == 0 {
		return nil
	}
	out := s.selbuf[:0]
	for free > 0 && s.actf.Len() > 0 {
		i := s.eo.Seq[s.actf.PopMin()]
		s.state[i] = stateRUN
		out = append(out, i)
		free--
	}
	s.selbuf = out
	return out
}

// Available returns how many activated tasks wait for a processor: what
// Select would return given that many. It changes only in Init, Restore
// and OnFinish (up) and in Select (down), so a caller driving many
// schedulers can keep "has work to launch" as state instead of asking
// each one with a Select.
func (s *MemBooking) Available() int { return s.actf.Len() }

// Remaining returns how many tasks have not finished.
func (s *MemBooking) Remaining() int { return s.remaining }

// check verifies the proof invariants (Lemmas 2–5) when CheckInvariants
// is enabled. The first violation is kept in InvariantErr. It is
// diagnostic-only and off by default, so its boxing and closure
// allocations are deliberately outside the hot-path allocation budget.
func (s *MemBooking) check() {
	if !s.CheckInvariants || s.InvariantErr != nil {
		return
	}
	if s.dispatch != DispatchALAP {
		// The Lemma 2–5 bookkeeping is specific to ALAP dispatch; the
		// eager ablation intentionally violates it (it may over-book a
		// node beyond its need).
		return
	}
	fail := func(format string, args ...any) {
		if s.InvariantErr == nil {
			s.InvariantErr = fmt.Errorf(format, args...)
		}
	}
	tol := s.eps * float64(s.t.Len()+1)
	head := tree.None // the candidate: the only unactivated node that may have a bbs
	if s.aoPos < len(s.ao.Seq) {
		head = s.ao.Seq[s.aoPos]
	}
	sum := 0.0
	for i := 0; i < s.t.Len(); i++ {
		sum += s.booked[i]
	}
	if math.Abs(sum-s.mbooked) > tol {
		fail("Σ Booked = %v but MBooked = %v", sum, s.mbooked)
	}
	if s.mbooked > s.m+tol {
		fail("MBooked %v exceeds bound %v", s.mbooked, s.m)
	}
	for i := 0; i < s.t.Len(); i++ {
		id := tree.NodeID(i)
		switch s.state[i] {
		case stateRUN:
			if math.Abs(s.booked[i]-s.need[i]) > tol {
				fail("running node %d: Booked %v != MemNeeded %v", i, s.booked[i], s.need[i])
			}
		case stateFN:
			if s.booked[i] != 0 || s.bbs[i] != 0 {
				fail("finished node %d: Booked %v bbs %v", i, s.booked[i], s.bbs[i])
			}
		case stateUN:
			if s.bbs[i] != -1 && id != head {
				fail("unactivated node %d off the cursor has bbs %v", i, s.bbs[i])
			}
		}
		// Lemma 2 for nodes whose bbs is untouched.
		if s.state[i] == stateUN && s.bbs[i] == -1 {
			fin := 0.0
			for _, c := range s.t.Children(id) {
				if s.state[c] == stateFN {
					fin += s.t.Out(c)
				}
			}
			if math.Abs(s.booked[i]-fin) > tol {
				fail("Lemma 2: node %d Booked %v != Σ finished children outputs %v", i, s.booked[i], fin)
			}
		}
		// Lemma 3 (2): activated/running nodes are covered.
		if s.state[i] == stateACT || s.state[i] == stateRUN {
			if s.bbs[i] < s.need[i]-tol {
				fail("Lemma 3(2): node %d bbs %v < MemNeeded %v", i, s.bbs[i], s.need[i])
			}
		}
		// Lemma 3 (3): bbs identity for every node with initialised bbs
		// that is not finished.
		if s.bbs[i] != -1 && s.state[i] != stateFN {
			if got := s.subtreeSum(id); math.Abs(got-s.bbs[i]) > tol {
				fail("Lemma 3(3): node %d bbs %v != Booked+Σchildren %v", i, s.bbs[i], got)
			}
		}
		// Incremental accounting: the cached child aggregate matches a
		// fresh re-scan of the children's BookedBySubtree.
		want := 0.0
		for _, c := range s.t.Children(id) {
			if s.bbs[c] != -1 {
				want += s.bbs[c]
			}
		}
		if math.Abs(want-s.childSum[i]) > tol {
			fail("childSum: node %d cached %v != Σ children bbs %v", i, s.childSum[i], want)
		}
	}
}
