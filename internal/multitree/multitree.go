// Package multitree simulates a multi-tenant cluster: a stream of
// independent task-tree jobs arriving over time and competing for one
// pool of p processors and M units of memory. It is the job-stream
// extension of the paper's per-tree setting: an admission/partition
// policy (policy.go) carves each admitted job a private memory slice
// M_j ≥ peak(AO_j) out of the global bound, so Theorem 1 composes —
// while Σ active M_j ≤ M, no admitted job can deadlock — and all
// active jobs share the processors through one global event loop
// (built on pqueue.EventHeap) that drives an unchanged per-tree
// core.MemBooking scheduler per job, each over its tree laid out in its
// activation order.
//
// The simulation is a pure function of its inputs: identical job
// specs, options and policy produce identical traces, which the
// harness's `multi` experiment exploits to evaluate its policy × load
// × arrival grid in parallel with byte-identical output.
package multitree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// JobSpec is one job of the stream: a task tree and its arrival time.
type JobSpec struct {
	// Name identifies the job in results and errors.
	Name string
	// Tree is the job's task tree.
	Tree *tree.Tree
	// Arrival is the submission time (≥ 0).
	Arrival float64
	// AO and Peak optionally carry the job's precomputed activation order
	// (must be topological for Tree, with Peak its sequential peak). When
	// AO is nil, Run computes both via order.MinMemPostOrder; corpora
	// replayed across many runs precompute them once instead. Run rejects
	// a NaN, negative or infinite Peak but cannot see an understated one:
	// slices are carved to Peak, so the job may stall in its slice, which
	// Run reports as core.ErrDeadlock.
	AO   *order.Order
	Peak float64
}

// Options configure a cluster run.
type Options struct {
	// Procs is the shared processor count (≥ 1).
	Procs int
	// Mem is the global memory pool every active slice is carved from.
	Mem float64
	// Policy is the admission/partition policy; nil selects FCFS with
	// minimal slices.
	Policy Policy
	// Faults switches the simulator into its fail-stop mode: injected
	// failures, retry-with-backoff and checkpoint/restart. Nil keeps the
	// fault-free fast path bit for bit.
	Faults *FaultOptions
	// Observer, when non-nil, receives the run's cluster events (admit,
	// backfill, task start/finish, fault, restart, checkpoint, queue
	// depth, job done) stamped with simulation time. Emission never
	// blocks and never allocates, and the observer has no effect on any
	// scheduling decision: results are bit-identical with or without
	// one. Run is a single emitter, so an obs.Options.SingleProducer
	// observer is safe here as long as it is dedicated to one Run at a
	// time; Run flushes it on return.
	Observer *obs.Observer
}

// FaultOptions configure fail-stop fault injection and recovery. The
// semantics are job-level fail-stop: a fault hitting any task of a job
// (a failed attempt at its completion instant, a processor crash epoch
// landing on one of its running tasks, or a cluster-wide burst) kills
// the whole job. Its in-flight completion events are cancelled, its
// memory slice M_j returns to the pool — the partition invariant
// Σ active M_j ≤ M is enforced across the release/re-acquire window —
// and the job re-queues through the admission policy after a backoff
// delay, restarting from its latest checkpoint (or from scratch without
// one) once retries remain.
type FaultOptions struct {
	// Plan is the realised fault schedule; nil injects nothing (the
	// retry and checkpoint machinery still runs). A Plan is not safe for
	// concurrent use: parallel sweep cells must each build their own from
	// the same (model, seed), which yields identical schedules.
	Plan *faults.Plan
	// MaxRetries caps restarts per job; a job that fails a
	// MaxRetries+1-th time is reported Failed instead of re-queued.
	MaxRetries int
	// Backoff is the retry-delay rule (zero value retries immediately).
	Backoff faults.Backoff
	// Checkpoint decides when active jobs snapshot at task boundaries;
	// nil is core.CheckpointNever (every restart replays from scratch).
	Checkpoint core.CheckpointPolicy
}

// JobResult is the completed lifecycle of one job.
type JobResult struct {
	Name  string
	Nodes int
	// Arrival, Start and Finish are the submission, admission and
	// completion times; Start − Arrival is the queueing delay.
	Arrival, Start, Finish float64
	// Peak is peak(AO_j), the minimal deadlock-free slice; Slice is the
	// memory the policy actually granted.
	Peak, Slice float64
	// Attempts is how many times the job was started (1 = no restart).
	Attempts int
	// Failed reports a job that exhausted its retries; Finish is then the
	// instant of its final failure.
	Failed bool
}

// Response returns the job's response time (finish − arrival).
func (j *JobResult) Response() float64 { return j.Finish - j.Arrival }

// BoundedSlowdown returns max(1, response / max(runtime, tau)): the
// standard job-stream metric, with short jobs' slowdowns damped by the
// threshold tau.
func (j *JobResult) BoundedSlowdown(tau float64) float64 {
	run := j.Finish - j.Start
	if run < tau {
		run = tau
	}
	if run <= 0 {
		return 1
	}
	s := j.Response() / run
	if s < 1 {
		return 1
	}
	return s
}

// Result summarises a cluster run.
type Result struct {
	// Jobs holds one entry per submitted job, in submission order.
	Jobs []JobResult
	// Makespan is the completion time of the last job.
	Makespan float64
	// BusyTime is Σ t_i over all tasks of all jobs.
	BusyTime float64
	// PeakReserved is the maximum Σ active slices ever reserved.
	PeakReserved float64
	// MaxQueue and AvgQueue are the maximum and time-averaged number of
	// jobs waiting for admission.
	MaxQueue int
	AvgQueue float64
	// Events counts committed task completion events across all jobs
	// (completions voided by an injected failure are not committed).
	Events int
	// Restarts counts job re-queues after a fault; Checkpoints counts
	// snapshots taken; FailedJobs counts jobs that exhausted retries.
	Restarts    int
	Checkpoints int
	FailedJobs  int
	// WastedWork is processor time spent without committing: partial work
	// of killed in-flight tasks, completions voided at a failure instant,
	// and committed work lost because the restart point predates it.
	WastedWork float64
}

// Utilization returns BusyTime / (p × Makespan).
func (r *Result) Utilization(p int) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.BusyTime / (float64(p) * r.Makespan)
}

// job is the runtime state of one submitted job.
type job struct {
	spec  JobSpec
	idx   int // submission index
	ao    *order.Order
	peak  float64
	est   float64
	dueAt float64 // when it joins the queue: its arrival, then each retry's expiry

	slice float64
	// lay is the job's tree laid out in ao's order, node ao.Seq[k]
	// becoming k: the tree its scheduler runs on, and the numbering of
	// its slots, batches and checkpoints. It is built ahead of the first
	// admission by Run's layout helper or at it by start, as claim
	// decides, and kept until record, so a restart restores onto the
	// numbering its checkpoint was taken in.
	lay     *tree.Tree
	claim   atomic.Int32 // who lays the job out: layFree, layBusy, layReady or layInline
	sched   *core.MemBooking
	pos     int // index in cluster.active while admitted
	running int
	start   float64
	estEnd  float64
	batch   []tree.NodeID // per-round completion buffer

	// Fault-mode state.
	key         faults.Key       // the fault plan's and the backoff's draw key, hashed once
	minSlice    float64          // required slice floor: max(peak, checkpoint's booked memory)
	attempt     int              // restarts so far; also the fault plan's attempt key
	cp          *core.Checkpoint // latest snapshot, nil before the first
	sinceCk     int              // commits since the last snapshot
	workSinceCk float64          // committed work a restart would lose
	peakBooked  float64          // booked-memory high-water mark of this attempt
}

// slotRec maps a completion-event id back to its job and task — the
// task's node in the job's laid-out tree — at most Procs records are
// live at once, recycled through a free list. A freed slot's job is
// nil, which is how the fault path tells busy processors from idle ones.
type slotRec struct {
	job           *job
	node          tree.NodeID
	start, finish float64
}

// cluster is the whole mutable state of one run. Its methods are the
// lifecycle transitions of DESIGN.md §8 — join, admit (start),
// dispatch, advance, complete (commit, checkpoint), strike (fail), and
// the record/retire pair that ends an attempt — and step is the one
// place that applies them in order. A job is in at most one of due,
// st.Queue and active: in none once it is recorded.
//
// The admission queue and EASY's release order are stored once, in the
// policy snapshot st, each entry carrying its job. One structure is
// derived from the rest and edited by the transition that changes its
// source, never rebuilt: active[k].pos == k, and bit k of ready is set
// exactly while active[k]'s scheduler has a task to launch.
type cluster struct {
	opt   *Options
	pol   Policy
	ob    *obs.Observer
	fo    *FaultOptions // nil in fault-free mode
	plan  *faults.Plan  // fo.Plan, nil when nothing is injected
	ckpol core.CheckpointPolicy
	eps   float64
	res   *Result

	jobs []job
	// due holds the jobs that will join the queue, fresh arrivals and
	// retries waiting out their backoff alike, latest first (dueLater):
	// its tail is the next to join.
	due    []*job
	active []*job // admitted, admission order
	// ready has one bit per position of active: set by the transitions
	// that can release a task (start, commit), cleared by the Select that
	// takes a job's last one, closed up in retire. dispatch reads it
	// instead of asking every job in turn.
	ready []uint64

	next      transition // what step runs next
	now       float64    // the current instant
	events    pqueue.EventHeap
	slots     []slotRec
	freeSlots []int32 // the idle processors; the rest run one task each
	freeMem   float64
	pool      core.MemBookingPool
	// layouts recycles the storage of the jobs' laid-out trees. Run's
	// layout helper takes from it too, so it is used under layMu.
	layMu   sync.Mutex
	layouts core.SizeClasses[*tree.Tree]
	// ahead holds one token per job the layout helper has claimed and no
	// admission has taken yet, so at most aheadMax; laid wakes a start
	// waiting for the helper to settle a claim. Both are nil when no
	// helper runs.
	ahead, laid chan struct{}
	// idents holds the jobs' activation and execution order: on a
	// laid-out tree, the identity.
	idents order.Identities
	// admitDirty gates the admission pass: policies are pure functions
	// of (queue, free memory), so re-invoking them is pointless until
	// the queue gains a member or memory returns to the pool (see the
	// State doc comment for why advancing time alone cannot help).
	admitDirty bool
	// st is the policies' snapshot, kept as state. st.Queue is the
	// admission queue (arrival order) and st.Releases the active jobs by
	// (estEnd, slice, idx), EASY's shadow order: join, admit, start and
	// retire edit the entry of the job they move, and a pass only stamps
	// the clock and the free memory on it.
	st State

	// In fault mode the plan is the one record of epochs: a busy slot's
	// event is pushed at min(finish, its processor's next crash epoch), so
	// the event heap alone says when anything next happens to a running
	// task, and burstAt is the burst epoch the latest advance saw (+Inf
	// when nothing ran). struck holds the slots complete popped at this
	// instant whose task did not finish; strike empties it.
	burstAt float64
	struck  []int32

	idbuf     []int32         // PopBatch destination, recycled
	admitMark []bool          // per-round admitted marks, recycled
	touched   []*job          // per-instant OnFinish grouping, recycled
	victims   []*job          // burst kill list, recycled
	batchFree [][]tree.NodeID // retired jobs' batch buffers, recycled
}

// Run simulates the job stream under the options' policy. Per-job
// schedulers are core.MemBooking over the job's memPO activation order
// (JobSpec.AO when given), run on the job's tree laid out in that order
// so that their per-node state is read nearly in sequence; node IDs in
// observer events and fault draws are the tree's own. The admission
// invariant M_j ≥ peak(AO_j) makes every admitted job
// deadlock-free (Theorem 1); Run surfaces core.ErrDeadlock only if a
// policy breaks the invariant the validator here lets through (it
// rejects slices below peak or over the free pool up front), or if a
// precomputed JobSpec.Peak understates the order's peak. A helper
// goroutine lays the jobs' trees out ahead of their first admissions;
// Run stops it and waits for it on every return.
func Run(specs []JobSpec, opt *Options) (*Result, error) {
	c, err := newCluster(specs, opt)
	if err != nil {
		return nil, err
	}
	stop := c.layAhead()
	defer stop()
	// Every emission in the loop is an array store behind one branch
	// (obs.Emit is nil-safe and allocation-free), so the fault-free fast
	// path and the steady-state alloc guarantee hold with telemetry on.
	// The deferred Flush publishes the tail of the single-producer batch.
	defer c.ob.Flush()
	for {
		if ran, err := c.step(); err != nil {
			return nil, err
		} else if ran == stepEnd {
			return c.result()
		}
	}
}

// aheadMax bounds the layouts the helper holds that no admission has
// taken yet: enough to ride out a burst of admissions, and few enough
// that the storage it pins stays small beside the active jobs'.
const aheadMax = 8

// The states of job.claim. A job's first layout is built by whichever of
// the helper and start claims it first; the helper's becomes start's
// only through layReady.
const (
	layFree   int32 = iota // unclaimed
	layBusy                // the helper is laying it out
	layReady               // the helper's layout is in lay, for start to take
	layInline              // start lays it out itself
)

// layAhead starts Run's layout helper, prepare, over the jobs in the
// order they are due, and returns what stops it and waits for it to
// exit.
func (c *cluster) layAhead() (stop func()) {
	c.ahead, c.laid = make(chan struct{}, aheadMax), make(chan struct{}, 1)
	quit, done := make(chan struct{}), make(chan struct{})
	due := slices.Clone(c.due) // the event loop edits c.due in place
	go func() {
		defer close(done)
		c.prepare(due, quit)
	}()
	return func() {
		close(quit)
		<-done
	}
}

// prepare is the layout helper: it walks the jobs in the order they are
// due — due's tail first — and lays each one's tree out in its
// activation order ahead of its first admission, on a core the event
// loop leaves idle. A layout is a pure function of (tree, AO), so who
// builds it moves no decision. It claims a job before laying it out,
// skips one start claimed first, and hands a job whose layout fails back
// unclaimed, for start to lay out again and report. It returns once it
// has walked every job, or when quit closes.
func (c *cluster) prepare(due []*job, quit <-chan struct{}) {
	for k := len(due) - 1; k >= 0; k-- {
		j := due[k]
		if j.claim.Load() != layFree {
			continue
		}
		select {
		case c.ahead <- struct{}{}:
		case <-quit:
			return
		}
		if !j.claim.CompareAndSwap(layFree, layBusy) {
			<-c.ahead
			continue
		}
		if lay, err := c.layOut(j); err != nil {
			j.claim.Store(layFree)
			<-c.ahead
		} else {
			j.lay = lay
			j.claim.Store(layReady)
		}
		select {
		case c.laid <- struct{}{}:
		default: // a wake-up is pending already
		}
	}
}

// layOutFirst gives j, at its first admission, its laid-out tree: the
// helper's when the helper claimed j, waiting only while the helper is
// partway through it, and one laid out here otherwise.
func (c *cluster) layOutFirst(j *job) (err error) {
	for {
		if j.claim.CompareAndSwap(layFree, layInline) {
			j.lay, err = c.layOut(j)
			return err
		}
		if j.claim.Load() == layReady {
			<-c.ahead
			return nil
		}
		<-c.laid
	}
}

// layOut lays j's tree out in its activation order, into recycled
// storage of its size class when there is some.
func (c *cluster) layOut(j *job) (*tree.Tree, error) {
	c.layMu.Lock()
	dst, _ := c.layouts.Get(j.spec.Tree.Len()) // nil: fresh storage
	c.layMu.Unlock()
	lay, err := j.spec.Tree.LayOut(j.ao.Seq, dst)
	if err != nil {
		return nil, fmt.Errorf("multitree: job %q: activation order %q: %w", j.spec.Name, j.ao.Name, err)
	}
	return lay, nil
}

// transition names a step of the cluster loop, in the order of one
// instant: a completion at a fault epoch commits before the fault
// strikes, and everything due at an instant joins the queue together for
// a single policy pass.
type transition uint8

const (
	stepJoin transition = iota
	stepAdmit
	stepDispatch
	stepDrained
	stepAdvance
	stepComplete
	stepStrike
	stepEnd // drained found the run over; step must not be called again
)

// step runs the cluster's next transition and reports which one ran, or
// stepEnd once the run is over. It is the only code that runs the
// transitions in sequence: Run loops over it, and so do the tests.
func (c *cluster) step() (ran transition, err error) {
	ran, c.next = c.next, c.next+1
	switch ran {
	case stepJoin:
		c.join()
	case stepAdmit:
		err = c.admit()
	case stepDispatch:
		err = c.dispatch()
	case stepDrained:
		var idle bool
		if idle, err = c.drained(); idle {
			return stepEnd, nil
		}
	case stepAdvance:
		c.advance()
	case stepComplete:
		c.complete()
	case stepStrike:
		c.strike()
		c.next = stepJoin
	}
	return ran, err
}

// newCluster validates the inputs and builds the initial state: every
// job outside the cluster, all processors and memory free, time 0.
func newCluster(specs []JobSpec, opt *Options) (*cluster, error) {
	if opt == nil || opt.Procs < 1 {
		return nil, fmt.Errorf("multitree: need at least one processor")
	}
	if !(opt.Mem > 0) || math.IsInf(opt.Mem, 0) {
		return nil, fmt.Errorf("multitree: memory pool must be positive and finite, got %g", opt.Mem)
	}
	p := opt.Procs
	c := &cluster{
		opt: opt, pol: opt.Policy, ob: opt.Observer, fo: opt.Faults,
		ckpol: core.CheckpointNever{},
		eps:   1e-9 * (1 + opt.Mem),
		// One backing array for every job's runtime state: a 10k-job
		// stream costs one allocation here, not 10k.
		jobs:       make([]job, len(specs)),
		due:        make([]*job, len(specs)),
		res:        &Result{Jobs: make([]JobResult, len(specs))},
		slots:      make([]slotRec, p),
		freeSlots:  make([]int32, p),
		freeMem:    opt.Mem,
		admitDirty: true,
		st:         State{Mem: opt.Mem},
	}
	if c.pol == nil {
		c.pol = FCFS{}
	}
	if c.fo != nil {
		c.plan = c.fo.Plan
		if c.fo.Checkpoint != nil {
			c.ckpol = c.fo.Checkpoint
		}
		if c.fo.MaxRetries < 0 {
			return nil, fmt.Errorf("multitree: negative retry cap %d", c.fo.MaxRetries)
		}
		// A NaN delay would never expire and an infinite one never end;
		// an uncapped one doubles past the largest float within ~1000
		// retries.
		b := c.fo.Backoff
		for _, v := range [...]float64{b.Base, b.Cap, b.Jitter, b.Longest(c.fo.MaxRetries)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("multitree: retry backoff %+v is not finite over %d retries", b, c.fo.MaxRetries)
			}
		}
	}
	for i, sp := range specs {
		if sp.Tree == nil || sp.Tree.Len() == 0 {
			return nil, fmt.Errorf("multitree: job %q has no tree", sp.Name)
		}
		if sp.Arrival < 0 || math.IsNaN(sp.Arrival) || math.IsInf(sp.Arrival, 0) {
			return nil, fmt.Errorf("multitree: job %q has invalid arrival %g", sp.Name, sp.Arrival)
		}
		ao, peak := sp.AO, sp.Peak
		if ao == nil {
			ao, peak = order.MinMemPostOrder(sp.Tree)
		}
		if !(peak >= 0) {
			return nil, fmt.Errorf("multitree: job %q has invalid peak %g", sp.Name, peak)
		}
		if peak > opt.Mem {
			return nil, fmt.Errorf("multitree: job %q needs %g memory, over the cluster pool %g — no slice can admit it", sp.Name, peak, opt.Mem)
		}
		c.jobs[i] = job{spec: sp, idx: i, ao: ao, peak: peak, minSlice: peak, est: bounds.Classical(sp.Tree, p), dueAt: sp.Arrival,
			key: faults.JobKey(sp.Name)}
		c.due[len(specs)-1-i] = &c.jobs[i] // a stream in arrival order is sorted already
	}
	slices.SortFunc(c.due, dueLater)
	c.events.Grow(p)
	for i := range c.freeSlots {
		c.freeSlots[i] = int32(p - 1 - i) // pop order 0,1,2,…
	}
	return c, nil
}

// join moves every job due by now from the due list to the admission
// queue (arrived or retry-wait → queued) and reports the new depth. The
// snapshot entry is written here once: minSlice changes only in fail,
// while the job is in neither queue.
func (c *cluster) join() {
	k := len(c.due)
	for k > 0 && c.due[k-1].dueAt <= c.now {
		k--
		c.st.Queue = append(c.st.Queue, queuedView(c.due[k]))
	}
	if k == len(c.due) {
		return
	}
	c.due = c.due[:k]
	c.admitDirty = true
	if len(c.st.Queue) > c.res.MaxQueue {
		c.res.MaxQueue = len(c.st.Queue)
	}
	c.ob.Emit(obs.KindQueueDepth, c.now, -1, -1, float64(len(c.st.Queue)), 0)
}

// dueLater orders the due list latest first, so its tail joins next.
// Jobs join by instant, a fresh arrival before a retry due at the same
// one, submission index breaking ties.
func dueLater(a, b *job) int {
	return cmp.Or(cmp.Compare(b.dueAt, a.dueAt), cmp.Compare(min(b.attempt, 1), min(a.attempt, 1)), cmp.Compare(b.idx, a.idx))
}

// releaseAt returns j's position in st.Releases, or where it would be
// inserted: the entries are sorted by (At, Mem, j.idx) — the order
// EASY's shadow walk consumes — and idx makes the keys unique.
// Admissions arrive with ever-later estEnd far more often than not, so
// an insert lands near the tail and moves little (temporal coherence, à
// la sweep-and-prune).
func (c *cluster) releaseAt(j *job) int {
	return sort.Search(len(c.st.Releases), func(k int) bool {
		r := &c.st.Releases[k]
		if r.At != j.estEnd {
			return r.At > j.estEnd
		}
		if r.Mem != j.slice {
			return r.Mem > j.slice
		}
		return r.j.idx >= j.idx
	})
}

// admit lets the policy carve slices while jobs wait (queued → active).
// Skipped while neither the queue nor the free pool has changed since
// the last pass — a pure policy would only repeat its empty answer.
func (c *cluster) admit() error {
	queue := c.st.Queue
	if !c.admitDirty || len(queue) == 0 {
		return nil
	}
	c.admitDirty = false
	c.st.Now, c.st.FreeMem = c.now, c.freeMem
	ads := c.pol.Admit(&c.st)
	if len(ads) == 0 {
		return nil
	}
	if cap(c.admitMark) < len(queue) {
		c.admitMark = make([]bool, len(queue))
	} else {
		c.admitMark = c.admitMark[:len(queue)]
		clear(c.admitMark)
	}
	// Mark first, then delete from the queue, so admission indices stay
	// valid while the policy's list is applied.
	for _, ad := range ads {
		if ad.Queue < 0 || ad.Queue >= len(queue) || c.admitMark[ad.Queue] {
			return fmt.Errorf("multitree: policy %q admitted invalid queue index %d", c.pol.Name(), ad.Queue)
		}
		j := queue[ad.Queue].j
		if ad.Slice < j.minSlice-c.eps {
			return fmt.Errorf("multitree: policy %q granted job %q slice %g below its floor %g (peak %g) — Theorem 1 would not hold", c.pol.Name(), j.spec.Name, ad.Slice, j.minSlice, j.peak)
		}
		if ad.Slice > c.freeMem+c.eps {
			return fmt.Errorf("multitree: policy %q granted job %q slice %g over the free pool %g — Σ slices would exceed M", c.pol.Name(), j.spec.Name, ad.Slice, c.freeMem)
		}
		c.admitMark[ad.Queue] = true
		if err := c.start(j, ad.Slice); err != nil {
			return err
		}
	}
	// An admission that jumps over a still-waiting earlier queue position
	// is a backfill: the policy (EASY, SBF) moved a job ahead of the queue
	// head's reservation.
	kept := queue[:0]
	for qi := range queue {
		if !c.admitMark[qi] {
			kept = append(kept, queue[qi])
			continue
		}
		j := queue[qi].j
		c.ob.Emit(obs.KindAdmit, c.now, int32(j.idx), -1, j.slice, c.freeMem)
		if len(kept) > 0 {
			c.ob.Emit(obs.KindBackfill, c.now, int32(j.idx), -1, j.slice, 0)
		}
	}
	c.st.Queue = kept
	c.ob.Emit(obs.KindQueueDepth, c.now, -1, -1, float64(len(kept)), 0)
	if reserved := c.opt.Mem - c.freeMem; reserved > c.res.PeakReserved {
		c.res.PeakReserved = reserved
	}
	return nil
}

// checkInvariants turns on every job scheduler's Lemma 2–5 checker
// (core.MemBooking.CheckInvariants), O(n) per event. Only tests set it.
var checkInvariants bool

// start carves j its slice and binds it a pooled scheduler over its
// laid-out tree — restored from the latest checkpoint on a retry,
// initialised otherwise — then enters it in active (and the ready index)
// and in the snapshot's release order. The first admission stamps the
// job's start and takes its laid-out tree.
func (c *cluster) start(j *job, slice float64) error {
	j.slice = slice
	if j.attempt == 0 {
		j.start = c.now // a retry keeps its original start
		if err := c.layOutFirst(j); err != nil {
			return err
		}
	}
	n := j.spec.Tree.Len()
	id := c.idents.Order(n)
	sched, err := c.pool.Get(j.lay, j.slice, id, id)
	if err != nil {
		return fmt.Errorf("multitree: job %q: %w", j.spec.Name, err)
	}
	sched.CheckInvariants = checkInvariants
	if j.cp != nil {
		// The admission floor guarantees the slice covers the snapshot's
		// booked memory.
		if err := sched.Restore(j.cp); err != nil {
			return fmt.Errorf("multitree: job %q restart: %w", j.spec.Name, err)
		}
	} else if err := sched.Init(); err != nil {
		return fmt.Errorf("multitree: job %q: %w", j.spec.Name, err)
	}
	j.sched = sched
	j.running = 0
	j.estEnd = c.now + j.est
	if c.fo != nil {
		j.sinceCk = 0
		j.workSinceCk = 0
		j.peakBooked = sched.BookedMemory()
	}
	c.freeMem -= j.slice
	j.pos = len(c.active)
	c.active = append(c.active, j)
	c.st.Releases = slices.Insert(c.st.Releases, c.releaseAt(j), Release{At: j.estEnd, Mem: j.slice, j: j})
	if j.pos>>6 == len(c.ready) {
		c.ready = append(c.ready, 0)
	}
	c.markReady(j)
	return nil
}

// markReady sets j's ready bit if its scheduler has a task to launch. It
// follows every call that can release one: Init, Restore, OnFinish.
func (c *cluster) markReady(j *job) {
	if j.sched.Available() > 0 {
		c.ready[j.pos>>6] |= 1 << (j.pos & 63)
	}
}

// dispatch offers the free processors to active jobs in admission order
// (greedy and deterministic; a job starved this round gets its chance at
// the next completion). Only jobs with a task to launch are visited: the
// lowest set bit of ready is the first job, in that order, whose Select
// would not come back empty.
func (c *cluster) dispatch() error {
	for w := 0; w < len(c.ready) && len(c.freeSlots) > 0; {
		if c.ready[w] == 0 {
			w++
			continue
		}
		b := bits.TrailingZeros64(c.ready[w])
		j := c.active[w<<6+b]
		for _, nid := range j.sched.Select(len(c.freeSlots)) {
			if len(c.freeSlots) == 0 {
				return fmt.Errorf("multitree: job %q over-selected tasks", j.spec.Name)
			}
			slot := c.freeSlots[len(c.freeSlots)-1]
			c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
			d := j.lay.Time(nid)
			c.slots[slot] = slotRec{job: j, node: nid, start: c.now, finish: c.now + d}
			at := c.now + d
			if c.plan != nil {
				at = min(at, c.plan.NextCrash(int(slot), c.now))
			}
			c.events.Push(at, slot)
			if c.ob != nil { // the mapped node is a random read, not paid unobserved
				c.ob.Emit(obs.KindStart, c.now, int32(j.idx), int32(j.ao.Seq[nid]), d, 0)
			}
			c.res.BusyTime += d
			j.running++
		}
		// A job still ready here was cut short by the processors running
		// out, which ends the loop.
		if j.sched.Available() == 0 {
			c.ready[w] &^= 1 << b
		}
	}
	return nil
}

// vacate frees slot s.
func (c *cluster) vacate(s int32) {
	c.slots[s].job = nil
	c.freeSlots = append(c.freeSlots, s)
}

// drained is the progress check between dispatch and advance. It
// reports true once nothing runs and nothing is due, and an error when
// the cluster is idle with work it should have been able to start.
func (c *cluster) drained() (bool, error) {
	if len(c.freeSlots) < c.opt.Procs {
		return false, nil
	}
	// With every active slice ≥ its peak, an active job with no running
	// task can always launch (Theorem 1), so a globally idle cluster with
	// active jobs is a policy/scheduler invariant violation, surfaced as
	// the shared deadlock type.
	if len(c.active) > 0 {
		j := c.active[0]
		return false, fmt.Errorf("multitree: job %q stalled the cluster: %w", j.spec.Name,
			&core.ErrDeadlock{Scheduler: j.sched.Name(), Finished: j.spec.Tree.Len() - j.sched.Remaining(),
				Total: j.spec.Tree.Len(), Booked: j.sched.BookedMemory()})
	}
	if len(c.due) > 0 {
		return false, nil
	}
	if len(c.st.Queue) > 0 {
		// Nothing running, nothing arriving, memory fully free — the
		// policy refused every admissible job.
		return false, fmt.Errorf("multitree: policy %q admitted nothing on an idle cluster with %d queued jobs", c.pol.Name(), len(c.st.Queue))
	}
	return true, nil
}

// advance moves the clock to the next instant: the earliest of the next
// event (a completion, or in fault mode a busy slot's crash epoch), the
// next due job (an arrival or a retry expiry), and — in fault mode,
// while anything runs — the next burst epoch, kept in burstAt for strike.
func (c *cluster) advance() {
	tNext := math.Inf(1)
	if c.events.Len() > 0 {
		tNext = c.events.Min().Time
	}
	if k := len(c.due); k > 0 && c.due[k-1].dueAt < tNext {
		tNext = c.due[k-1].dueAt
	}
	c.burstAt = math.Inf(1)
	if c.plan != nil && len(c.freeSlots) < c.opt.Procs {
		c.burstAt = c.plan.NextBurst(c.now)
		tNext = min(tNext, c.burstAt)
	}
	c.res.AvgQueue += float64(len(c.st.Queue)) * (tNext - c.now)
	c.now = tNext
}

// complete drains the tasks finishing at this instant, grouped per job
// (first-touch order) so each job's scheduler sees exactly one OnFinish
// per instant, as the engine contract requires. A popped slot whose task
// does not finish now has reached its crash epoch: it stays busy, set
// aside for strike.
func (c *cluster) complete() {
	if c.events.Len() == 0 || c.events.Min().Time != c.now {
		return
	}
	_, c.idbuf = c.events.PopBatch(c.idbuf[:0])
	c.touched = c.touched[:0]
	for _, slot := range c.idbuf {
		rec := c.slots[slot]
		if rec.finish != c.now {
			c.struck = append(c.struck, slot)
			continue
		}
		c.vacate(slot)
		j := rec.job
		if j.batch == nil {
			if k := len(c.batchFree); k > 0 {
				j.batch = c.batchFree[k-1]
				c.batchFree = c.batchFree[:k-1]
			} else {
				j.batch = make([]tree.NodeID, 0, 4)
			}
		}
		if len(j.batch) == 0 {
			c.touched = append(c.touched, j)
		}
		j.batch = append(j.batch, rec.node)
	}
	for _, j := range c.touched {
		c.commit(j)
	}
}

// commit applies j's completion batch: its tasks leave their processors
// and — unless an injected failure voids the batch — are committed to
// the scheduler, after which the job either is done (active → done) or
// reaches a task boundary where it may checkpoint.
func (c *cluster) commit(j *job) {
	n := len(j.batch)
	j.running -= n
	if c.plan != nil {
		// A failed attempt is detected at its completion instant:
		// fail-stop, so the whole job dies and the batch — fully run — is
		// wasted, never committed.
		doomed := false
		for _, nid := range j.batch {
			if c.plan.TaskFails(j.key, int(j.ao.Seq[nid]), j.attempt) {
				doomed = true
				break
			}
		}
		if doomed {
			for _, nid := range j.batch {
				c.res.WastedWork += j.lay.Time(nid)
			}
			j.batch = j.batch[:0]
			c.fail(j)
			return
		}
	}
	j.sched.OnFinish(j.batch)
	if c.fo != nil {
		for _, nid := range j.batch {
			j.workSinceCk += j.lay.Time(nid)
		}
		j.sinceCk += n
	}
	if c.ob != nil {
		for _, nid := range j.batch {
			c.ob.Emit(obs.KindFinish, c.now, int32(j.idx), int32(j.ao.Seq[nid]), 0, 0)
		}
	}
	j.batch = j.batch[:0]
	c.res.Events += n
	if j.sched.Remaining() == 0 {
		c.record(j, false)
		c.retire(j)
		return
	}
	c.markReady(j)
	if c.fo != nil {
		c.checkpoint(j)
	}
}

// checkpoint runs at a task boundary — after the batch's OnFinish,
// before any launch at this instant, the checkpoint contract — and
// snapshots j when the policy says so.
func (c *cluster) checkpoint(j *job) {
	booked := j.sched.BookedMemory()
	if c.ckpol.Should(j.sinceCk, booked, j.peakBooked) {
		j.cp = j.sched.CheckpointInto(j.cp)
		j.sinceCk = 0
		j.workSinceCk = 0
		c.res.Checkpoints++
		c.ob.Emit(obs.KindCheckpoint, c.now, int32(j.idx), -1, booked, 0)
	}
	if booked > j.peakBooked {
		j.peakBooked = booked
	}
}

// strike applies the fault epochs of this instant, after same-instant
// completions have committed: a crash kills the job running on that
// processor, in slot order, then a burst kills every job with running
// work. A struck slot whose job a commit has failed already is free by
// now and skipped. A burst strikes when the advance that stopped here saw
// one at this instant; had nothing run then, nothing would run now.
func (c *cluster) strike() {
	if c.plan == nil {
		return
	}
	slices.Sort(c.struck)
	for _, s := range c.struck {
		if j := c.slots[s].job; j != nil {
			c.fail(j)
		}
	}
	c.struck = c.struck[:0]
	if c.burstAt == c.now {
		c.victims = c.victims[:0]
		for _, j := range c.active {
			if j.running > 0 {
				c.victims = append(c.victims, j)
			}
		}
		for _, j := range c.victims {
			c.fail(j)
		}
	}
}

// fail is the fail-stop path: kill the job's in-flight tasks (cancelling
// their completion events and crediting their partial work as wasted),
// release its slice back to the pool, and either put it on the due list
// until its backoff elapses (active → retry-wait) or report it Failed
// once retries run out (active → failed).
func (c *cluster) fail(j *job) {
	if j.sched == nil {
		return // already failed at this instant (e.g. crash after burst)
	}
	c.ob.Emit(obs.KindFault, c.now, int32(j.idx), -1, j.slice, 0)
	for s := range c.slots {
		rec := &c.slots[s]
		if rec.job != j {
			continue
		}
		c.res.WastedWork += c.now - rec.start
		c.res.BusyTime -= rec.finish - c.now // charged at launch; the remainder never runs
		c.vacate(int32(s))
	}
	j.running = 0
	c.events.Filter(func(id int32) bool { return c.slots[id].job != nil })
	// Commits past the restart point will be redone: wasted.
	c.res.WastedWork += j.workSinceCk
	j.workSinceCk = 0
	c.retire(j)
	j.attempt++
	if j.cp != nil {
		// A snapshot books at most its slice plus the scheduler's rounding
		// tolerance, so under a pool of exactly one peak the floor can come
		// out an ulp over Mem: a job no policy could admit again. The pool
		// is the ceiling (Restore grants the same tolerance back).
		j.minSlice = min(max(j.minSlice, j.cp.BookedMemory()), c.opt.Mem)
	}
	if j.attempt > c.fo.MaxRetries {
		c.record(j, true)
		return
	}
	c.res.Restarts++
	j.dueAt = c.now + c.fo.Backoff.Delay(j.key, j.attempt-1)
	c.ob.Emit(obs.KindRestart, c.now, int32(j.idx), -1, j.dueAt, float64(j.attempt))
	at, _ := slices.BinarySearchFunc(c.due, j, dueLater)
	c.due = slices.Insert(c.due, at, j)
}

// retire ends j's current attempt, finished or failed: its slice returns
// to the pool, it leaves active — and the ready index with it, every
// later active job moving down one position — and the snapshot's release
// order, and its scheduler and batch buffer go back for a later admission
// of a same-size-class job to reuse.
func (c *cluster) retire(j *job) {
	c.freeMem += j.slice
	c.admitDirty = true
	c.active = slices.Delete(c.active, j.pos, j.pos+1)
	for _, later := range c.active[j.pos:] {
		later.pos--
	}
	dropBit(c.ready, j.pos)
	at := c.releaseAt(j) // lands on j's own entry
	c.st.Releases = slices.Delete(c.st.Releases, at, at+1)
	c.pool.Put(j.sched)
	j.sched = nil
	if j.batch != nil {
		c.batchFree = append(c.batchFree, j.batch[:0])
		j.batch = nil
	}
}

// dropBit removes bit k from the bit set, moving every higher bit down
// one position.
func dropBit(set []uint64, k int) {
	w, low := k>>6, uint64(1)<<(k&63)-1
	set[w] = set[w]&low | set[w]>>1&^low
	for ; w+1 < len(set); w++ {
		set[w] |= set[w+1] << 63
		set[w+1] >>= 1
	}
}

// record writes j's final JobResult: completed, or failed for good
// after exhausting its retries (Finish is then the final failure). The
// job's laid-out tree goes back for a later job to lay out into.
func (c *cluster) record(j *job, failed bool) {
	// LayOut grows storage to its size class, and the pool hands it only
	// to trees of that class, so the class of its size is its own.
	c.layMu.Lock()
	c.layouts.Put(tree.SizeClass(j.lay.Len()), j.lay)
	c.layMu.Unlock()
	j.lay = nil
	jr := JobResult{
		Name: j.spec.Name, Nodes: j.spec.Tree.Len(),
		Arrival: j.spec.Arrival, Start: j.start, Finish: c.now,
		Peak: j.peak, Slice: j.slice,
		Attempts: j.attempt + 1, Failed: failed,
	}
	code := 0.0
	if failed {
		jr.Attempts = j.attempt // fail already counted the attempt that died
		code = 1
		c.res.FailedJobs++
	}
	c.res.Jobs[j.idx] = jr
	c.ob.Emit(obs.KindDone, c.now, int32(j.idx), -1, j.slice, code)
	if c.now > c.res.Makespan {
		c.res.Makespan = c.now
	}
}

// result closes the run: the slice ledger must balance, and the queue
// integral becomes a time average.
func (c *cluster) result() (*Result, error) {
	if math.Abs(c.freeMem-c.opt.Mem) > c.eps {
		// Every slice must have been released exactly once, across the
		// fail/retry windows too; a leak here is a partition-invariant bug.
		return nil, fmt.Errorf("multitree: slice accounting leak: %g of %g back in the pool", c.freeMem, c.opt.Mem)
	}
	if c.res.Makespan > 0 {
		c.res.AvgQueue /= c.res.Makespan
	}
	return c.res, nil
}
