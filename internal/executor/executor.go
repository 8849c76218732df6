// Package executor runs a task tree for real: a pool of worker
// goroutines executes user-supplied task bodies while a memory-aware
// Scheduler (typically core.MemBooking) decides, at every completion,
// which tasks may start. This is the "runtime execution" the paper's
// abstract argues MemBooking is cheap enough for: task durations are
// unknown in advance, only the tree shape and data sizes are.
package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Task is the user work for one tree node. It runs on a worker
// goroutine; returning an error aborts the execution.
type Task func(id tree.NodeID) error

// ErrInjected marks a task attempt failed by the fault plan rather than
// by its body; it is retried like any other failure.
var ErrInjected = errors.New("injected fault")

// Result summarises a live execution.
type Result struct {
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
	// PeakMem is the peak model memory (per the tree's attributes, not
	// the Go heap) reached during the run.
	PeakMem float64
	// PeakBooked is the largest booked memory reported by the scheduler.
	PeakBooked float64
	// Tasks is the number of tasks executed.
	Tasks int
	// Retries counts failed task attempts that were retried.
	Retries int
}

// Options configure RunWithOptions beyond the basic worker cap.
type Options struct {
	// Workers caps concurrent task goroutines (≥ 1).
	Workers int
	// Ctx, when non-nil, cancels the run: no new task starts after
	// Ctx.Done(), in-flight tasks are drained, retry waits are cut
	// short, and the run returns Ctx's error.
	Ctx context.Context
	// MaxRetries retries each failing task attempt up to this many
	// times before the failure aborts the run. Retries happen inside
	// the task's worker goroutine, so the worker cap and the
	// scheduler's memory accounting are undisturbed: a retrying task
	// still occupies its worker and its booked memory, exactly as if it
	// were slow — which is what keeps a MemoryLimiter balanced across
	// restarts (Theorem 1's bound never needs re-proving mid-retry).
	MaxRetries int
	// Backoff is the wait between attempts of one task, keyed by
	// (PlanKey, task id) so simultaneous failures decorrelate.
	Backoff faults.Backoff
	// BackoffUnit scales Backoff's delays into wall time (default 1ms).
	BackoffUnit time.Duration
	// Plan, when non-nil, injects deterministic attempt failures: an
	// attempt whose TaskFails(PlanKey, task, attempt) draw is true fails
	// with ErrInjected even if the body succeeded (chaos testing).
	Plan *faults.Plan
	// PlanKey names this run in the plan's draws.
	PlanKey string
	// Observer, when non-nil, receives the run's task events (start,
	// finish, fault, restart) stamped with wall-clock seconds since the
	// run began and Job = -1 (a live run executes one tree, not a job
	// wave). Retry attempts emit from worker goroutines concurrently
	// with the launch loop, so the observer must NOT be configured with
	// obs.Options.SingleProducer.
	Observer *obs.Observer
}

// Run executes every task of t using at most workers concurrent
// goroutines, in an order chosen dynamically by s. The scheduler's
// memory accounting is authoritative: a task starts only when the
// scheduler releases it, so the model memory never exceeds the
// scheduler's bound.
func Run(t *tree.Tree, s core.Scheduler, workers int, task Task) (*Result, error) {
	return RunWithOptions(t, s, task, Options{Workers: workers})
}

// RunWithOptions is Run with fault tolerance: per-task retries with
// capped exponential backoff, deterministic fault injection, and
// context cancellation.
func RunWithOptions(t *tree.Tree, s core.Scheduler, task Task, opt Options) (*Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		return nil, fmt.Errorf("executor: need at least one worker, got %d", workers)
	}
	if task == nil {
		return nil, fmt.Errorf("executor: nil task body")
	}
	if opt.MaxRetries < 0 {
		return nil, fmt.Errorf("executor: negative retry cap %d", opt.MaxRetries)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	unit := opt.BackoffUnit
	if unit <= 0 {
		unit = time.Millisecond
	}
	ob := opt.Observer
	if err := s.Init(); err != nil {
		return nil, err
	}

	n := t.Len()
	type completion struct {
		id      tree.NodeID
		err     error
		retries int
	}
	done := make(chan completion, workers)
	var (
		running  int
		finished int
		used     float64
		res      = &Result{}
		start    = time.Now()
		firstErr error
		// One completion arrives at a time, so OnFinish always gets this
		// one-element batch; schedulers must not retain it.
		batch = make([]tree.NodeID, 1)
	)

	// attempt runs one task to success or retry exhaustion inside its
	// worker goroutine.
	attempt := func(id tree.NodeID) completion {
		key := opt.PlanKey + "#" + strconv.Itoa(int(id))
		for a := 0; ; a++ {
			err := task(id)
			if err == nil && opt.Plan != nil && opt.Plan.TaskFails(opt.PlanKey, int(id), a) {
				err = fmt.Errorf("%w (attempt %d)", ErrInjected, a)
			}
			if err == nil {
				return completion{id, nil, a}
			}
			ob.Emit(obs.KindFault, time.Since(start).Seconds(), -1, int32(id), float64(a), 0)
			if a == opt.MaxRetries {
				return completion{id, err, a}
			}
			if d := opt.Backoff.Delay(key, a); d > 0 {
				timer := time.NewTimer(time.Duration(d * float64(unit)))
				select {
				case <-ctx.Done():
					timer.Stop()
					return completion{id, ctx.Err(), a}
				case <-timer.C:
				}
			} else if ctx.Err() != nil {
				return completion{id, ctx.Err(), a}
			}
			ob.Emit(obs.KindRestart, time.Since(start).Seconds(), -1, int32(id), float64(a+1), 0)
		}
	}

	// launch starts the selected tasks, enforcing the worker cap exactly
	// like the simulator: a scheduler that returns more tasks than the
	// free processors it was asked for is a contract violation, not a
	// licence to run extra goroutines. Already-launched tasks keep
	// running; the drain loop below collects them before returning.
	launch := func(ids []tree.NodeID) {
		for _, id := range ids {
			if running == workers {
				if firstErr == nil {
					firstErr = fmt.Errorf("executor: %s over-selected tasks", s.Name())
				}
				break
			}
			running++
			used += t.Exec(id) + t.Out(id)
			if used > res.PeakMem {
				res.PeakMem = used
			}
			ob.Emit(obs.KindStart, time.Since(start).Seconds(), -1, int32(id), t.Exec(id)+t.Out(id), 0)
			go func(id tree.NodeID) {
				done <- attempt(id)
			}(id)
		}
		if b := s.BookedMemory(); b > res.PeakBooked {
			res.PeakBooked = b
		}
	}

	launch(s.Select(workers))
	for finished < n {
		if running == 0 {
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, &core.ErrDeadlock{Scheduler: s.Name(), Finished: finished, Total: n, Booked: s.BookedMemory()}
		}
		var c completion
		if firstErr == nil {
			select {
			case c = <-done:
			case <-ctx.Done():
				firstErr = fmt.Errorf("executor: %w", ctx.Err())
				continue // drain running tasks, start nothing new
			}
		} else {
			c = <-done
		}
		running--
		finished++
		res.Retries += c.retries
		if c.err == nil {
			ob.Emit(obs.KindFinish, time.Since(start).Seconds(), -1, int32(c.id), 0, 0)
		}
		used -= t.Exec(c.id)
		for _, ch := range t.Children(c.id) {
			used -= t.Out(ch)
		}
		if t.Parent(c.id) == tree.None {
			used -= t.Out(c.id)
		}
		if c.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("executor: task %d: %w", c.id, c.err)
		}
		if firstErr != nil {
			continue // drain running tasks, start nothing new
		}
		batch[0] = c.id
		s.OnFinish(batch)
		launch(s.Select(workers - running))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Wall = time.Since(start)
	res.Tasks = n
	if math.Abs(used) > 1e-6 {
		return nil, fmt.Errorf("executor: memory accounting leak: %g left", used)
	}
	return res, nil
}

// MemoryLimiter is a helper for task bodies that want to actually
// allocate their data: it tracks live bytes and fails loudly if the
// scheduler ever lets the model memory exceed the configured bound.
// It is an executable witness of the Theorem 1 guarantee.
type MemoryLimiter struct {
	mu    sync.Mutex
	limit float64
	live  float64
	peak  float64
}

// NewMemoryLimiter returns a limiter with the given bound.
func NewMemoryLimiter(limit float64) *MemoryLimiter {
	return &MemoryLimiter{limit: limit}
}

// Alloc registers size units of live data; it returns an error if the
// bound would be exceeded.
func (l *MemoryLimiter) Alloc(size float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live+size > l.limit*(1+1e-9) {
		return fmt.Errorf("executor: allocation of %g exceeds bound %g (live %g)", size, l.limit, l.live)
	}
	l.live += size
	if l.live > l.peak {
		l.peak = l.live
	}
	return nil
}

// Free releases size units.
func (l *MemoryLimiter) Free(size float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live -= size
}

// Peak returns the high-water mark.
func (l *MemoryLimiter) Peak() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}
