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
	"slices"
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
	// Trace, when non-nil, records the run: Run truncates it, then
	// appends one span per launched task and one memory sample per event
	// batch as it goes, so a run that deadlocks keeps what happened
	// before the deadlock.
	Trace *Trace
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
// processors (the moldable extension of the paper's §8). Both drivers of
// RunState — the simulator's Runner and the live executor — ask for a
// task's shape when it starts and again when it finishes, so the answer
// must not change between the Select that returned the task and its
// completion. A scheduler that is not Wide runs every task on
// one processor for t.Time(i) with no workspace: the paper's rigid model
// is the width-1, zero-workspace case of the same accounting.
type Wide interface {
	// Shape returns the processors task i occupies, its duration at that
	// width, and the workspace memory it holds on top of its MemNeeded
	// while it runs.
	Shape(i tree.NodeID) (procs int, time, workspace float64)
}

// Run simulates the execution of t on p processors driven by s.
func Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	return new(Runner).Run(t, p, s, opts)
}

// Runner runs simulations while reusing the event heap and the run
// state's buffers across runs, so that repeated sweeps (one cell per run)
// allocate nothing per cell beyond the Result. The zero value is ready to
// use. A Runner is not safe for concurrent use; the sweep engine keeps one
// per worker.
type Runner struct {
	// events holds one completion per running task (pqueue.EventHeap,
	// the earliest kept sorted over a heap of the rest), so it is empty
	// exactly when nothing runs.
	events pqueue.EventHeap
	ids    []int32 // PopBatch destination, recycled across batches
	st     RunState
}

// Run simulates the execution of t on p processors driven by s. It
// launches at time 0, then retires the completions an instant at a time,
// in time order and, within an instant, in launch order: a zero-duration
// task completes in a later batch at the same time. The run ends when
// nothing runs; RunState.End tells a finished run from a deadlock.
func (r *Runner) Run(t *tree.Tree, p int, s core.Scheduler, opts *Options) (*Result, error) {
	if err := r.st.Start(t, p, s, opts); err != nil {
		return nil, err
	}
	// At most min(p, n) events are pending at any instant: pre-sizing
	// keeps every growth re-allocation out of the event loop.
	hint := min(p, t.Len())
	r.events.Reset()
	r.events.Grow(hint)
	r.ids = slices.Grow(r.ids[:0], hint)
	now := 0.0
	for {
		// r.ids is empty at the opening instant: the initial launch.
		r.st.Finish(r.ids)
		spans, err := r.st.Launch(now)
		for _, sp := range spans {
			r.events.Push(sp.End, int32(sp.Node))
		}
		if err != nil || r.events.Len() == 0 {
			return r.st.End(now, err)
		}
		now, r.ids = r.events.PopBatch(r.ids[:0])
	}
}

// RunState is the accounting of one tree's run under a scheduler, written
// once for both clocks: Runner.Run drives it from its simulated event queue,
// and the live executor (internal/executor) from the completions of its
// worker goroutines. A driver calls Start; then Finish and Launch for the
// opening instant (no completions: the initial launch) and for every
// batch of tasks that completed together, starting each task Launch
// returns; then End once nothing is running. The zero value is ready for
// Start, and a RunState reused across runs keeps its buffers.
type RunState struct {
	t       *tree.Tree
	s       core.Scheduler
	wide    Wide
	opts    *Options
	wall    func() time.Time // nil when the scheduler's time is not measured
	entered time.Time        // when Finish handed the instant to the scheduler
	res     *Result
	used    float64 // model memory currently resident
	eps     float64 // CheckMemory's tolerance, relative to opts.Bound
	free    int
	batch   []tree.NodeID // OnFinish destination, recycled across instants
	spans   []Span        // Launch's result, recycled across instants
}

// Start begins a run of t on p processors driven by s: it checks the
// arguments, truncates opts.Trace and calls s.Init.
func (st *RunState) Start(t *tree.Tree, p int, s core.Scheduler, opts *Options) error {
	if opts == nil {
		opts = &Options{}
	}
	if tr := opts.Trace; tr != nil {
		tr.Spans, tr.Mem = tr.Spans[:0], tr.Mem[:0]
	}
	if p <= 0 {
		return fmt.Errorf("sim: need at least one processor, got %d", p)
	}
	if opts.NoSchedTime && opts.Clock != nil {
		return fmt.Errorf("sim: Options.Clock is set together with NoSchedTime, which disables the measurement the clock would drive")
	}
	wide, _ := s.(Wide)
	*st = RunState{t: t, s: s, wide: wide, opts: opts, res: &Result{}, free: p, batch: st.batch, spans: st.spans,
		eps: 1e-9 * (1 + math.Abs(opts.Bound))}
	// At most min(p, n) tasks complete or start at one instant.
	hint := min(p, t.Len())
	st.batch, st.spans = slices.Grow(st.batch[:0], hint), slices.Grow(st.spans[:0], hint)
	if opts.NoSchedTime {
		return s.Init()
	}
	st.wall = time.Now
	if opts.Clock != nil {
		st.wall = opts.Clock
	}
	start := st.wall()
	if err := s.Init(); err != nil {
		return err
	}
	st.res.SchedTime += st.wall().Sub(start)
	return nil
}

// Finish retires the tasks completing at one instant, frees their
// processors and memory, and tells the scheduler.
func (st *RunState) Finish(ids []int32) {
	t := st.t
	batch := st.batch[:0]
	for _, id := range ids {
		j := tree.NodeID(id)
		batch = append(batch, j)
		q, extra := 1, 0.0
		if st.wide != nil {
			q, _, extra = st.wide.Shape(j)
		}
		st.free += q
		st.res.Events++
		st.used -= t.Exec(j) + extra
		for _, c := range t.Children(j) {
			st.used -= t.Out(c)
		}
		if t.Parent(j) == tree.None {
			// The computation is over: the final result leaves the
			// working memory, mirroring the scheduler freeing the
			// root's booking.
			st.used -= t.Out(j)
		}
	}
	st.batch = batch
	if st.wall != nil {
		st.entered = st.wall()
	}
	if len(batch) > 0 {
		st.s.OnFinish(batch)
	}
}

// Launch starts what the scheduler selects on the free processors at now,
// audits the memory and records the trace sample. It returns each launched
// task as the span it runs for, in a slice the next Launch reuses. An
// error — an over-selection or a CheckMemory violation — ends the run,
// and none of the instant's tasks is to be started.
func (st *RunState) Launch(now float64) ([]Span, error) {
	t, s, res, tr := st.t, st.s, st.res, st.opts.Trace
	sel := s.Select(st.free)
	if st.wall != nil {
		res.SchedTime += st.wall().Sub(st.entered)
	}
	spans := st.spans[:0]
	for _, i := range sel {
		q, d, extra := 1, t.Time(i), 0.0
		if st.wide != nil {
			q, d, extra = st.wide.Shape(i)
		}
		if q < 1 || q > st.free {
			return nil, fmt.Errorf("sim: %s over-selected: task %d wants %d processors with %d free", s.Name(), i, q, st.free)
		}
		st.free -= q
		res.MaxWidth = max(res.MaxWidth, q)
		if q > 1 {
			res.WideTasks++
		}
		// extra is exactly 0 for a rigid task, so this one expression
		// keeps the rigid engine's rounding bit for bit.
		st.used += t.Exec(i) + t.Out(i) + extra
		if st.used > res.PeakMem {
			res.PeakMem = st.used
		}
		res.BusyTime += t.Time(i)
		spans = append(spans, Span{Node: i, Start: now, End: now + d})
		if tr != nil {
			tr.Spans = append(tr.Spans, spans[len(spans)-1])
		}
	}
	st.spans = spans
	booked := s.BookedMemory()
	if booked > res.PeakBooked {
		res.PeakBooked = booked
	}
	if st.opts.CheckMemory {
		if st.used > booked+st.eps {
			return nil, fmt.Errorf("sim: %s uses %g but booked only %g at t=%g", s.Name(), st.used, booked, now)
		}
		if booked > st.opts.Bound+st.eps {
			return nil, fmt.Errorf("sim: %s booked %g over bound %g at t=%g", s.Name(), booked, st.opts.Bound, now)
		}
	}
	if tr != nil {
		tr.Mem = append(tr.Mem, MemSample{Time: now, Used: st.used, Booked: booked})
	}
	return spans, nil
}

// End closes the run at now: it sorts the trace and returns err if the
// driver stopped on one, else a *core.ErrDeadlock if tasks remain (nothing
// runs and the last Select launched nothing: Activation and
// MemBookingRedTree under too small a bound, never MemBooking while
// M ≥ peak(AO), Theorem 1), else the Result.
func (st *RunState) End(now float64, err error) (*Result, error) {
	if tr := st.opts.Trace; tr != nil {
		tr.sortSpans()
	}
	if err != nil {
		return nil, err
	}
	if n := st.t.Len(); st.res.Events != n {
		return nil, &core.ErrDeadlock{Scheduler: st.s.Name(), Finished: st.res.Events, Total: n, Booked: st.s.BookedMemory()}
	}
	st.res.Makespan = now
	return st.res, nil
}
