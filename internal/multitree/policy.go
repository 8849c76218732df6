package multitree

import "math"

// This file holds the admission/partition policies. A policy sees a
// read-only snapshot of the cluster (State) and answers with the queued
// jobs to admit now and the memory slice to carve for each. The
// simulator enforces the two rules that make Theorem 1 compose across
// jobs — every slice at least the job's sequential peak, and the sum of
// active slices never over the pool — so a policy that respects them
// can never deadlock an admitted job, whatever its ordering does to
// waiting times.

// QueuedJob is the policy's view of one waiting job.
type QueuedJob struct {
	// Peak is the smallest admissible slice: peak(AO_j), raised to the
	// checkpoint's booked memory for a job re-queued after a failure
	// (restoring into a smaller slice would break the snapshot's
	// Theorem 1 witness).
	Peak float64
	// Estimate is the job's makespan lower bound at the full processor
	// count — the "runtime estimate" ordering and backfill reserve by.
	Estimate float64

	j *job // the simulator's own handle on the waiting job
}

// Release is one active job's promise to return its slice: backfilling
// treats At — admission time + the job's estimate — as the instant Mem
// memory rejoins the pool.
type Release struct {
	At  float64
	Mem float64

	j *job // the simulator's own handle on the active job
}

// State is the read-only cluster snapshot a policy decides from. It is
// not rebuilt for a pass: Queue and Releases are the simulator's own
// lists, a job's Queue entry written when the job joins the queue and
// removed when it is admitted, its Release inserted when it starts and
// removed when it retires. Only Now and FreeMem are stamped per pass.
// Read-only is therefore load-bearing — a write through the snapshot is
// not overwritten by the next pass, it stays for the rest of the run and
// every later decision reads it — and policies must not retain the
// slices. The tests' violation() oracle catches such a write: the
// stepped grid over allPolicies() compares every Queue and Releases
// entry with its job after each transition, so a new built-in policy
// must join allPolicies() for the grid to cover it.
//
// Policies must be pure functions of (Now, Mem, FreeMem, Queue,
// Releases): the simulator re-invokes Admit only when the queue gains
// members or memory returns to the pool, because between those events a
// pure policy's decision can only stay empty — advancing Now alone never
// makes an infeasible admission feasible (EASY's endsInTime test only
// flips from true to false as Now grows). In particular policies cannot
// key on the free processors, nor on anything else about the tasks of
// the active jobs: processors churn every event without changing memory
// feasibility, so the snapshot carries no per-event field.
type State struct {
	Now float64
	// Mem is the pool size; FreeMem is Mem − Σ active slices.
	Mem     float64
	FreeMem float64
	// Queue lists waiting jobs in arrival order.
	Queue []QueuedJob
	// Releases holds one entry per active job, sorted ascending by
	// (At, Mem): the order EASY's shadow walk consumes. The simulator
	// maintains the sort incrementally — admissions insert, completions
	// remove — because release times exhibit temporal coherence (the
	// order barely changes between rounds), so no per-decision sort is
	// ever needed.
	Releases []Release
}

// queuedView is j's Queue entry. Every field is fixed while j waits:
// the floor moves only when an attempt fails, which happens to active
// jobs.
func queuedView(j *job) QueuedJob {
	return QueuedJob{Peak: j.minSlice, Estimate: j.est, j: j}
}

// Admission grants one queued job a memory slice.
type Admission struct {
	// Queue indexes State.Queue.
	Queue int
	// Slice is the granted memory; the simulator requires
	// Queue[i].Peak ≤ Slice and Σ granted ≤ State.FreeMem.
	Slice float64
}

// Policy decides admissions. Implementations must be deterministic
// functions of the State — the harness's serial-vs-parallel golden
// tests compare traces byte for byte.
type Policy interface {
	// Name identifies the policy in tables.
	Name() string
	// Admit returns the jobs to admit at State.Now, applied in order.
	Admit(st *State) []Admission
}

// FCFS admits strictly in arrival order: the queue head is admitted
// whenever its slice fits, and a head that does not fit blocks every
// job behind it (the no-starvation baseline). Slices are minimal —
// exactly the peak; FairShare is the policy that stretches them.
type FCFS struct{}

// Name implements Policy.
func (f FCFS) Name() string { return "fcfs" }

// Admit implements Policy.
func (f FCFS) Admit(st *State) []Admission {
	var out []Admission
	free := st.FreeMem
	for i := range st.Queue {
		q := st.Queue[i]
		if q.Peak > free {
			break
		}
		out = append(out, Admission{Queue: i, Slice: q.Peak})
		free -= q.Peak
	}
	return out
}

// SBF (shortest-bound-first) repeatedly admits the fitting queued job
// with the smallest makespan lower bound — the SJF analogue when exact
// durations are unknown but the bound is computable from the tree.
// Long jobs can starve under sustained load; that trade-off is the
// point of comparing it against FCFS and EASY.
type SBF struct{}

// Name implements Policy.
func (s SBF) Name() string { return "sbf" }

// Admit implements Policy.
func (s SBF) Admit(st *State) []Admission {
	var out []Admission
	free := st.FreeMem
	// taken marks the jobs admitted by earlier scans of this pass. Most
	// passes never scan twice, so it waits for the first that does.
	var taken []bool
	for {
		// lo and lo2 are the two smallest peaks still waiting: with them
		// the scan that picks best also tells whether anything fits behind
		// it.
		best, lo, lo2 := -1, math.Inf(1), math.Inf(1)
		for i := range st.Queue {
			if taken != nil && taken[i] {
				continue
			}
			pk := st.Queue[i].Peak
			if pk < lo {
				lo, lo2 = pk, lo
			} else if pk < lo2 {
				lo2 = pk
			}
			// Ties go to the earlier arrival (lower queue index).
			if pk <= free && (best < 0 || st.Queue[i].Estimate < st.Queue[best].Estimate) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		pk := st.Queue[best].Peak
		out = append(out, Admission{Queue: best, Slice: pk})
		free -= pk
		if pk == lo {
			lo = lo2
		}
		if lo > free {
			return out
		}
		if taken == nil {
			taken = make([]bool, len(st.Queue))
		}
		taken[best] = true
	}
}

// FairShare partitions the pool into Shares equal slices and admits in
// arrival order with slice max(peak, M/Shares): fewer jobs run
// concurrently than under minimal slices, but each gets the memory
// slack that lets its own scheduler parallelise (the paper's Figures 2
// and 10 — makespan falls steeply with slack just above the minimum).
type FairShare struct {
	// Shares is the target concurrency level (default 4).
	Shares int
}

// Name implements Policy.
func (f FairShare) Name() string { return "fair" }

// Admit implements Policy.
func (f FairShare) Admit(st *State) []Admission {
	shares := f.Shares
	if shares < 1 {
		shares = 4
	}
	target := st.Mem / float64(shares)
	var out []Admission
	free := st.FreeMem
	for i := range st.Queue {
		q := st.Queue[i]
		if q.Peak > free {
			break
		}
		s := target
		if s > free {
			s = free
		}
		if s < q.Peak {
			s = q.Peak
		}
		out = append(out, Admission{Queue: i, Slice: s})
		free -= s
	}
	return out
}

// EASY is EASY-style backfilling over the memory dimension: the queue
// head holds a reservation at the earliest instant enough slices return
// (assuming active jobs end at their estimates), and later jobs may
// jump the queue only if they fit now and — by their own estimate —
// either finish before the reservation or use memory the head will not
// need. Estimates are lower bounds, so a late job can overrun its
// promise and push the reservation; the head is still never overtaken
// indefinitely, because backfilled jobs must fit the shadow computed
// from the state at each round. Slices are minimal (exactly the peak):
// stretching a backfilled one would consume the very headroom the
// reservation protects.
type EASY struct{}

// Name implements Policy.
func (e EASY) Name() string { return "easy" }

// Admit implements Policy.
func (e EASY) Admit(st *State) []Admission {
	var out []Admission
	free := st.FreeMem
	// Admit from the head while it fits (FCFS fast path).
	next := 0
	for next < len(st.Queue) && st.Queue[next].Peak <= free {
		out = append(out, Admission{Queue: next, Slice: st.Queue[next].Peak})
		free -= st.Queue[next].Peak
		next++
	}
	if next >= len(st.Queue) || len(st.Releases)+len(out) == 0 {
		return out
	}
	head := st.Queue[next]

	// Shadow time: walk active jobs by estimated end — st.Releases is
	// already in that order — accumulating the slices they return, until
	// the head fits; extra is the memory left over at that instant beyond
	// the head's need.
	shadow := st.Now
	avail := free
	ri := 0
	for avail < head.Peak && ri < len(st.Releases) {
		avail += st.Releases[ri].Mem
		shadow = st.Releases[ri].At
		ri++
	}
	if avail < head.Peak {
		// Jobs admitted this round have no EstEnd in the snapshot yet;
		// their return alone must cover the head eventually.
		shadow = math.Inf(1)
	}
	extra := avail - head.Peak

	// Backfill: later jobs, arrival order, minimal slices.
	for i := next + 1; i < len(st.Queue); i++ {
		q := st.Queue[i]
		if q.Peak > free {
			continue
		}
		endsInTime := st.Now+q.Estimate <= shadow
		if !endsInTime && q.Peak > extra {
			continue
		}
		out = append(out, Admission{Queue: i, Slice: q.Peak})
		free -= q.Peak
		if !endsInTime {
			extra -= q.Peak
		}
	}
	return out
}
