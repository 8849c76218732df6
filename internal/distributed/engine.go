package distributed

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/pqueue"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Result summarises a distributed execution.
type Result struct {
	// Makespan is the completion time of the whole tree.
	Makespan float64
	// PeakMem and PeakBooked are per-domain peaks.
	PeakMem    []float64
	PeakBooked []float64
	// Transfers counts cross-domain output movements; TransferVolume is
	// their total size and TransferTime the total time they spent on the
	// wire.
	Transfers      int
	TransferVolume float64
	TransferTime   float64
	// BusyTime is the per-domain processor-seconds of useful work.
	BusyTime []float64
}

// Run executes t on the platform with the given task→domain mapping,
// using a per-domain activation policy: local tasks activate in AO order
// by booking n_i + f_i against their domain's memory; outputs crossing
// domains are admitted into the destination's memory before the transfer
// starts and travel at the platform bandwidth.
func Run(t *tree.Tree, plat *Platform, domainOf []int32, ao, eo *order.Order) (*Result, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if len(domainOf) != t.Len() {
		return nil, fmt.Errorf("distributed: mapping covers %d of %d tasks", len(domainOf), t.Len())
	}
	nd := len(plat.Domains)
	for i, d := range domainOf {
		if d < 0 || int(d) >= nd {
			return nil, fmt.Errorf("distributed: task %d mapped to unknown domain %d", i, d)
		}
	}
	if !ao.TopologicalFor(t) {
		return nil, fmt.Errorf("distributed: activation order %q is not topological", ao.Name)
	}
	n := t.Len()
	res := &Result{
		PeakMem:    make([]float64, nd),
		PeakBooked: make([]float64, nd),
		BusyTime:   make([]float64, nd),
	}

	// Per-domain state.
	booked := make([]float64, nd)
	used := make([]float64, nd)
	freeProcs := make([]int, nd)
	aoLocal := make([][]tree.NodeID, nd) // local tasks in AO order
	aoIdx := make([]int, nd)
	avail := make([]*pqueue.RankHeap, nd)
	eps := make([]float64, nd)
	for d := 0; d < nd; d++ {
		freeProcs[d] = plat.Domains[d].Procs
		avail[d] = pqueue.NewRankHeap(eo.Rank())
		eps[d] = 1e-9 * (1 + math.Abs(plat.Domains[d].Mem))
	}
	for _, v := range ao.Seq {
		d := domainOf[v]
		aoLocal[d] = append(aoLocal[d], v)
	}

	activated := make([]bool, n)
	pending := make([]int32, n) // children not yet usable by the parent
	for i := 0; i < n; i++ {
		pending[i] = int32(t.Degree(tree.NodeID(i)))
	}

	// Transfers waiting for destination memory, per destination domain.
	waiting := make([][]tree.NodeID, nd)

	// The simulated clock. Event ids below n are task finishes, n and
	// above transfer arrivals; each running task or in-flight transfer
	// owns exactly one heap entry.
	var clock sim.Kernel
	events := &clock.Events
	now := 0.0
	finished := 0

	mark := func(d int) {
		if booked[d] > res.PeakBooked[d] {
			res.PeakBooked[d] = booked[d]
		}
		if used[d] > res.PeakMem[d] {
			res.PeakMem[d] = used[d]
		}
	}

	tryActivate := func(d int) {
		for aoIdx[d] < len(aoLocal[d]) {
			i := aoLocal[d][aoIdx[d]]
			needed := t.Exec(i) + t.Out(i)
			if booked[d]+needed > plat.Domains[d].Mem+eps[d] {
				return
			}
			booked[d] += needed
			mark(d)
			activated[i] = true
			aoIdx[d]++
			if pending[i] == 0 {
				avail[d].Push(int32(i))
			}
		}
	}

	admitTransfers := func(d int) {
		// Admit waiting transfers into domain d's memory, FIFO.
		q := waiting[d]
		for len(q) > 0 {
			c := q[0]
			f := t.Out(c)
			if booked[d]+f > plat.Domains[d].Mem+eps[d] {
				break
			}
			q = q[1:]
			booked[d] += f
			used[d] += f
			mark(d)
			dur := 0.0
			if plat.Bandwidth > 0 {
				dur = f / plat.Bandwidth
			}
			res.Transfers++
			res.TransferVolume += f
			res.TransferTime += dur
			events.Push(now+dur, int32(int(c)+n))
		}
		waiting[d] = q
	}

	finishTask := func(j tree.NodeID) {
		d := domainOf[j]
		freeProcs[d]++
		finished++
		// Free execution data and every input (local children outputs
		// and reserved cross inputs all live in this domain's memory).
		freed := t.Exec(j)
		for _, c := range t.Children(j) {
			freed += t.Out(c)
		}
		booked[d] -= freed
		used[d] -= freed
		p := t.Parent(j)
		if p == tree.None {
			booked[d] -= t.Out(j)
			used[d] -= t.Out(j)
			return
		}
		if domainOf[p] == d {
			pending[p]--
			if pending[p] == 0 && activated[p] {
				avail[d].Push(int32(p))
			}
			return
		}
		// Cross edge: queue the output for transfer to the parent's domain.
		waiting[domainOf[p]] = append(waiting[domainOf[p]], j)
	}

	finishTransfer := func(j tree.NodeID) {
		src := domainOf[j]
		// The output has left the source domain.
		booked[src] -= t.Out(j)
		used[src] -= t.Out(j)
		p := t.Parent(j)
		dst := domainOf[p]
		pending[p]--
		if pending[p] == 0 && activated[p] {
			avail[dst].Push(int32(p))
		}
	}

	// One step of the clock: retire the task finishes and transfer
	// arrivals of the instant, let every domain admit waiting transfers
	// and activate, launch on the free processors, then audit the
	// memory. The kernel's opening call (no events) is the initial
	// activation.
	makespan, err := clock.Run(func(at float64, ids []int32) error {
		now = at
		for _, id := range ids {
			if int(id) < n {
				finishTask(tree.NodeID(id))
			} else {
				finishTransfer(tree.NodeID(int(id) - n))
			}
		}
		for d := 0; d < nd; d++ {
			admitTransfers(d)
			tryActivate(d)
		}
		for d := 0; d < nd; d++ {
			for freeProcs[d] > 0 && avail[d].Len() > 0 {
				i := tree.NodeID(avail[d].Pop())
				freeProcs[d]--
				used[d] += t.Exec(i) + t.Out(i)
				mark(d)
				res.BusyTime[d] += t.Time(i)
				events.Push(now+t.Time(i), int32(i))
			}
		}
		for d := 0; d < nd; d++ {
			if used[d] > booked[d]+eps[d] {
				return fmt.Errorf("distributed: domain %d uses %g but booked %g at t=%g", d, used[d], booked[d], now)
			}
			if booked[d] > plat.Domains[d].Mem+eps[d] {
				return fmt.Errorf("distributed: domain %d booked %g over %g at t=%g", d, booked[d], plat.Domains[d].Mem, now)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if finished != n {
		// Nothing runs, nothing is in flight, and no memory can be freed to
		// admit more work. No termination theorem is known for private
		// domain memories, so this is an expected outcome at tight bounds.
		sum := 0.0
		for _, b := range booked {
			sum += b
		}
		return nil, &core.ErrDeadlock{Scheduler: "distributed", Finished: finished, Total: n, Booked: sum}
	}
	res.Makespan = makespan
	return res, nil
}
