// Package sim is a discrete-event simulator for the parallel execution of
// a task tree on p processors under a scheduler. It is the measurement
// harness behind every experiment of the paper's §7: it reports the
// makespan, the peak of the model memory actually in use, the peak booked
// memory, and the wall-clock time spent inside the scheduler's own
// decision code (the "scheduling time" of Figures 5, 6 and 13).
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// Options tune a simulation run.
type Options struct {
	// CheckMemory verifies after every event that the model memory in use
	// is at most the booked memory, and that the booked memory is at most
	// Bound. Requires Bound to be set.
	CheckMemory bool
	// Bound is the memory bound used by CheckMemory.
	Bound float64
	// MemTrace, when non-nil, receives (time, usedMemory, bookedMemory)
	// after every event batch; used to plot memory profiles.
	MemTrace func(t, used, booked float64)
	// NoSchedTime disables the wall-clock measurement of the scheduler's
	// decision time (Result.SchedTime stays zero). Measuring costs two
	// time.Now calls per event batch, which dominates the simulator's own
	// work on large sweeps; runs that do not report scheduling time
	// should set it.
	NoSchedTime bool
	// Clock replaces time.Now for the SchedTime measurement; tests use it
	// to make timing output deterministic. Setting Clock together with
	// NoSchedTime is contradictory (there is no measurement for the clock
	// to drive); Run rejects the combination instead of silently ignoring
	// the clock.
	Clock func() time.Time
}

// Result summarises a simulated execution.
type Result struct {
	// Makespan is the completion time of the whole tree.
	Makespan float64
	// PeakMem is the maximum model memory in use at any instant: outputs
	// of produced-but-unconsumed tasks plus execution and output data of
	// running tasks.
	PeakMem float64
	// PeakBooked is the maximum memory booked by the scheduler.
	PeakBooked float64
	// BusyTime is Σ t_i, the total processor-seconds of useful work.
	BusyTime float64
	// Events is the number of completion events processed.
	Events int
	// MaxWidth is the widest processor allocation granted to any task and
	// WideTasks the number of tasks that ran on more than one processor:
	// 1 and 0 unless the scheduler is Wide.
	MaxWidth, WideTasks int
	// SchedTime is the wall-clock time spent inside the scheduler
	// (Init, OnFinish, Select), i.e. the runtime overhead of the policy.
	SchedTime time.Duration
}

// Utilization returns BusyTime / (p × Makespan).
func (r *Result) Utilization(p int) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.BusyTime / (float64(p) * r.Makespan)
}

// Wide is implemented by schedulers whose tasks may occupy several
// processors (the moldable extension of the paper's §8). The simulator
// asks for a task's shape when it starts and again when it finishes, so
// the answer must not change between the Select that returned the task
// and its completion. A scheduler that is not Wide runs every task on
// one processor for t.Time(i) with no workspace: the paper's rigid model
// is the width-1, zero-workspace case of the same accounting.
type Wide interface {
	// Shape returns the processors task i occupies, its duration at that
	// width, and the workspace memory it holds on top of its MemNeeded
	// while it runs.
	Shape(i tree.NodeID) (procs int, time, workspace float64)
}

// Kernel is the simulated clock the simulated engines (this package,
// moldable through it, distributed) run on: a heap of timed events and
// the one loop that drains it an instant at a time.
type Kernel struct {
	// Events holds the pending events. An engine's step pushes one per
	// task it starts or transfer it admits, so the heap is empty exactly
	// when nothing is running or in flight.
	Events pqueue.EventHeap
	ids    []int32 // PopBatch destination, recycled across batches
}

// Run empties the heap, calls step once at time 0 with no events — the
// engine's initial launch — and then once per distinct event time, in
// time order, with the IDs of every event at that instant (in push
// order). It returns the time of the last batch when the heap runs dry,
// or step's first error. The kernel has a single exit, so an engine
// detects deadlock in one place: Run returned without error and tasks
// remain unfinished, which means nothing is running and the last step
// could launch nothing.
func (k *Kernel) Run(step func(now float64, ids []int32) error) (float64, error) {
	k.Events.Reset()
	now := 0.0
	if err := step(now, nil); err != nil {
		return now, err
	}
	for k.Events.Len() > 0 {
		now, k.ids = k.Events.PopBatch(k.ids[:0])
		if err := step(now, k.ids); err != nil {
			return now, err
		}
	}
	return now, nil
}

// Run simulates the execution of t on p processors driven by s.
func Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	return new(Runner).Run(t, p, s, opts)
}

// Runner runs simulations while reusing the event heap and batch buffer
// across runs, so that repeated sweeps (one cell per run) allocate
// nothing per cell beyond the Result. The zero value is ready to use. A
// Runner is not safe for concurrent use; the sweep engine keeps one per
// worker.
type Runner struct {
	k     Kernel
	batch []tree.NodeID
}

// Run simulates the execution of t on p processors driven by s.
func (r *Runner) Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if p <= 0 {
		return nil, fmt.Errorf("sim: need at least one processor, got %d", p)
	}
	if opts.NoSchedTime && opts.Clock != nil {
		return nil, fmt.Errorf("sim: Options.Clock is set together with NoSchedTime, which disables the measurement the clock would drive")
	}
	n := t.Len()
	res := &Result{}
	wide, _ := s.(Wide)

	wall := time.Now
	if opts.Clock != nil {
		wall = opts.Clock
	}
	measure := !opts.NoSchedTime

	if measure {
		start := wall()
		if err := s.Init(); err != nil {
			return nil, err
		}
		res.SchedTime += wall().Sub(start)
	} else if err := s.Init(); err != nil {
		return nil, err
	}

	events := &r.k.Events
	// At most min(p, n) tasks run — and hence events are pending — at any
	// instant; pre-sizing the heap and both batch buffers from the tree
	// removes every growth re-allocation from the event loop.
	hint := p
	if n < hint {
		hint = n
	}
	events.Grow(hint)
	if cap(r.batch) < hint {
		r.batch = make([]tree.NodeID, 0, hint)
	}
	if cap(r.k.ids) < hint {
		r.k.ids = make([]int32, 0, hint)
	}
	used := 0.0 // model memory currently resident
	free := p
	finished := 0

	// step retires the tasks completing at one instant, tells the
	// scheduler, launches what it selects and audits the memory; the
	// kernel's opening call (no completions) is the initial launch.
	step := func(now float64, ids []int32) error {
		batch := r.batch[:0]
		for _, id := range ids {
			j := tree.NodeID(id)
			batch = append(batch, j)
			q, extra := 1, 0.0
			if wide != nil {
				q, _, extra = wide.Shape(j)
			}
			free += q
			finished++
			res.Events++
			used -= t.Exec(j) + extra
			for _, c := range t.Children(j) {
				used -= t.Out(c)
			}
			if t.Parent(j) == tree.None {
				// The computation is over: the final result leaves the
				// working memory, mirroring the scheduler freeing the
				// root's booking.
				used -= t.Out(j)
			}
		}
		r.batch = batch // keep the grown buffer even on early-error returns
		var st time.Time
		if measure {
			st = wall()
		}
		if len(batch) > 0 {
			s.OnFinish(batch)
		}
		sel := s.Select(free)
		if measure {
			res.SchedTime += wall().Sub(st)
		}
		for _, i := range sel {
			q, d, extra := 1, t.Time(i), 0.0
			if wide != nil {
				q, d, extra = wide.Shape(i)
			}
			if q < 1 || q > free {
				return fmt.Errorf("sim: %s over-selected: task %d wants %d processors with %d free", s.Name(), i, q, free)
			}
			free -= q
			if q > res.MaxWidth {
				res.MaxWidth = q
			}
			if q > 1 {
				res.WideTasks++
			}
			// extra is exactly 0 for a rigid task, so this one expression
			// keeps the rigid engine's rounding bit for bit.
			used += t.Exec(i) + t.Out(i) + extra
			if used > res.PeakMem {
				res.PeakMem = used
			}
			res.BusyTime += t.Time(i)
			events.Push(now+d, int32(i))
		}
		booked := s.BookedMemory()
		if booked > res.PeakBooked {
			res.PeakBooked = booked
		}
		if opts.CheckMemory {
			eps := 1e-9 * (1 + math.Abs(opts.Bound))
			if used > booked+eps {
				return fmt.Errorf("sim: %s uses %g but booked only %g at t=%g", s.Name(), used, booked, now)
			}
			if booked > opts.Bound+eps {
				return fmt.Errorf("sim: %s booked %g over bound %g at t=%g", s.Name(), booked, opts.Bound, now)
			}
		}
		if opts.MemTrace != nil {
			opts.MemTrace(now, used, booked)
		}
		return nil
	}

	end, err := r.k.Run(step)
	if err != nil {
		return nil, err
	}
	if finished != n {
		// The heap ran dry short of the tree: nothing is running and the
		// last Select launched nothing. Activation and MemBookingRedTree
		// get here when the memory bound is too small; MemBooking never
		// does while M ≥ peak(AO) (Theorem 1).
		return nil, &core.ErrDeadlock{Scheduler: s.Name(), Finished: finished, Total: n, Booked: s.BookedMemory()}
	}
	res.Makespan = end
	return res, nil
}
