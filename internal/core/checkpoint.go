package core

import (
	"fmt"
	"math"

	"repro/internal/tree"
)

// This file is the checkpoint/restart layer of MemBooking: the
// fail-stop recovery path of the fault-tolerance suite. The paper's
// memory-booking state is exactly what makes task-boundary checkpoints
// cheap — a run is fully described by the per-node state vector (which
// tasks finished, which are activated), the booked map, the
// BookedBySubtree vector and its cached child aggregate; no event-loop
// or heap state needs saving, because both heaps are derivable from the
// state vector in O(n). A Restore rebuilds the scheduler mid-schedule
// without re-running preparation (the tree and orders are kept), with
// every in-flight task demoted back to activated so the engine simply
// re-selects it: the fail-stop semantics in which running work at the
// failure instant is lost and re-executed.

// Checkpoint is a consistent snapshot of a MemBooking run taken at a
// task boundary (between an OnFinish batch and the next Select). It is
// bound to the (tree, activation order, execution order) triple of the
// scheduler that produced it; restoring into a scheduler over different
// inputs is an error.
type Checkpoint struct {
	n         int
	state     []uint8
	booked    []float64
	bbs       []float64
	childSum  []float64
	mbooked   float64
	transient float64
	remaining int
	aoName    string
	eoName    string
}

// Remaining returns the number of unfinished tasks in the snapshot.
func (cp *Checkpoint) Remaining() int { return cp.remaining }

// BookedMemory returns the total booked memory in the snapshot: the
// floor any restore bound must clear.
func (cp *Checkpoint) BookedMemory() float64 { return cp.mbooked + cp.transient }

// Checkpoint snapshots the current run state. Allocation-free reuse is
// available through CheckpointInto.
func (s *MemBooking) Checkpoint() *Checkpoint {
	return s.CheckpointInto(nil)
}

// CheckpointInto writes the snapshot into cp (allocating one when nil),
// reusing its O(n) buffers so a checkpoint-every-k engine allocates
// only on its first snapshot. It must be called at a task boundary:
// after the OnFinish batch of an instant, before launching new tasks
// selected at that instant.
func (s *MemBooking) CheckpointInto(cp *Checkpoint) *Checkpoint {
	if s.need == nil {
		panic("core: Checkpoint before Init")
	}
	n := s.t.Len()
	if cp == nil {
		cp = &Checkpoint{}
	}
	if cap(cp.state) < n {
		cp.state = make([]uint8, n)
		cp.booked = make([]float64, n)
		cp.bbs = make([]float64, n)
		cp.childSum = make([]float64, n)
	}
	cp.n = n
	cp.state = cp.state[:n]
	cp.booked = cp.booked[:n]
	cp.bbs = cp.bbs[:n]
	cp.childSum = cp.childSum[:n]
	copy(cp.state, s.state)
	copy(cp.booked, s.booked)
	copy(cp.bbs, s.bbs)
	copy(cp.childSum, s.childSum)
	cp.mbooked = s.mbooked
	cp.transient = s.transient
	cp.remaining = s.remaining
	cp.aoName = s.ao.Name
	cp.eoName = s.eo.Name
	return cp
}

// Restore re-enters a run from cp: the fail-stop restart. The
// scheduler must be over the same tree and orders the checkpoint was
// taken from, and its current memory bound must cover the snapshot's
// booked memory (restarting into a smaller slice would instantly
// violate the bound). Tasks that were running at the snapshot are
// demoted to activated — their booking is intact, so the engine
// re-selects and re-executes them; that lost work is exactly the
// fail-stop model's wasted work. Restore reuses the scheduler's O(n)
// state and rebuilds both heaps from the state vector, so a restart
// never re-runs preparation. Restore runs once per fault recovery —
// not per event — so its per-restart scratch is off the hot-path
// allocation budget.
func (s *MemBooking) Restore(cp *Checkpoint) error {
	n := s.t.Len()
	if cp == nil || cp.n != n {
		return fmt.Errorf("core: checkpoint covers %d tasks, scheduler tree has %d", cpLen(cp), n)
	}
	if cp.aoName != s.ao.Name || cp.eoName != s.eo.Name {
		return fmt.Errorf("core: checkpoint taken under orders (%s, %s), scheduler uses (%s, %s)",
			cp.aoName, cp.eoName, s.ao.Name, s.eo.Name)
	}
	eps := 1e-9 * (1 + math.Abs(s.m))
	if cp.mbooked+cp.transient > s.m+eps {
		return fmt.Errorf("core: checkpoint books %g, over the restore bound %g", cp.mbooked+cp.transient, s.m)
	}
	if s.need == nil {
		// A fresh scheduler (NewMemBooking, never Init-ed) can restore
		// directly; allocate the run state Init would have.
		s.alloc(n)
	}
	copy(s.state, cp.state)
	copy(s.booked, cp.booked)
	copy(s.bbs, cp.bbs)
	copy(s.childSum, cp.childSum)
	s.mbooked = cp.mbooked
	s.transient = cp.transient
	s.remaining = cp.remaining
	s.eps = eps
	s.InvariantErr = nil

	// Fail-stop: whatever ran at the snapshot is lost; its memory is
	// still booked (a running node holds exactly its need), so demoting
	// it to activated re-queues it for execution with no accounting
	// change.
	for i := 0; i < n; i++ {
		if s.state[i] == stateRUN {
			s.state[i] = stateACT
		}
	}
	// The children counters, the activation cursor and the execution heap
	// are pure functions of the state vector: rebuild them in O(n). The
	// activated nodes always form a prefix of the activation order (see
	// the aoPos field comment), so the cursor is the first position whose
	// node is not yet activated.
	for i := 0; i < n; i++ {
		s.chNotAct[i] = 0
		s.chNotFin[i] = 0
	}
	for i := 0; i < n; i++ {
		p := s.t.Parent(tree.NodeID(i))
		if p == tree.None {
			continue
		}
		switch s.state[i] {
		case stateUN, stateCAND:
			s.chNotAct[p]++
			s.chNotFin[p]++
		case stateACT:
			s.chNotFin[p]++
		}
	}
	s.aoPos = n
	for k, v := range s.ao.Seq {
		if st := s.state[v]; st == stateUN || st == stateCAND {
			s.aoPos = k
			break
		}
	}
	s.actf.Reset(s.eo.Rank())
	for i := 0; i < n; i++ {
		if s.state[i] == stateACT && s.chNotFin[i] == 0 {
			s.actf.Push(int32(i))
		}
	}
	// Memory freed between the snapshot and the failure is free again
	// after restore, so a candidate blocked at snapshot time is still
	// blocked: no activation round is owed here. Running one anyway
	// would be harmless (same decisions), but the engine's next
	// OnFinish triggers it naturally.
	s.check()
	return nil
}

func cpLen(cp *Checkpoint) int {
	if cp == nil {
		return 0
	}
	return cp.n
}

// CheckpointPolicy decides when an engine snapshots a running job. The
// engine tracks the inputs: tasks finished since the last snapshot, the
// currently booked memory, and the booked high-water mark seen before
// this instant. Implementations must be pure so fault sweeps stay
// deterministic.
type CheckpointPolicy interface {
	// Name identifies the policy in tables ("none", "every16", "on-peak").
	Name() string
	// Should reports whether to snapshot at this task boundary.
	Should(sinceLast int, booked, peakBefore float64) bool
}

// CheckpointNever takes no snapshots: every restart replays from
// scratch (the wasted-work worst case, the no-overhead best case).
type CheckpointNever struct{}

// Name implements CheckpointPolicy.
func (CheckpointNever) Name() string { return "none" }

// Should implements CheckpointPolicy.
func (CheckpointNever) Should(int, float64, float64) bool { return false }

// CheckpointEvery snapshots after every K finished tasks (K ≤ 0 is
// treated as 1: snapshot at every boundary).
type CheckpointEvery struct{ K int }

// Name implements CheckpointPolicy.
func (c CheckpointEvery) Name() string {
	k := c.K
	if k < 1 {
		k = 1
	}
	return fmt.Sprintf("every%d", k)
}

// Should implements CheckpointPolicy.
func (c CheckpointEvery) Should(sinceLast int, _, _ float64) bool {
	k := c.K
	if k < 1 {
		k = 1
	}
	return sinceLast >= k
}

// CheckpointOnPeak snapshots whenever the booked memory sets a new
// high-water mark: the instants where the most state would be lost, at
// the cost of snapshotting through every ascent.
type CheckpointOnPeak struct{}

// Name implements CheckpointPolicy.
func (CheckpointOnPeak) Name() string { return "on-peak" }

// Should implements CheckpointPolicy.
func (CheckpointOnPeak) Should(_ int, booked, peakBefore float64) bool {
	return booked > peakBefore
}
