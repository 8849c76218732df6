// Package executor runs a task tree for real: a pool of worker
// goroutines executes user-supplied task bodies while a memory-aware
// Scheduler (typically core.MemBooking) decides, at every completion,
// which tasks may start. This is the "runtime execution" the paper's
// abstract argues MemBooking is cheap enough for: task durations are
// unknown in advance, only the tree shape and data sizes are.
package executor

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tree"
)

// Task is the user work for one tree node. It runs on a worker
// goroutine; returning an error aborts the execution.
type Task func(id tree.NodeID) error

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
}

// Run executes every task of t using at most workers concurrent
// goroutines, in an order chosen dynamically by s. The scheduler's
// memory accounting is authoritative: a task starts only when the
// scheduler releases it, so the model memory never exceeds the
// scheduler's bound.
func Run(t *tree.Tree, s core.Scheduler, workers int, task Task) (*Result, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("executor: need at least one worker, got %d", workers)
	}
	if task == nil {
		return nil, fmt.Errorf("executor: nil task body")
	}
	if err := s.Init(); err != nil {
		return nil, err
	}

	n := t.Len()
	type completion struct {
		id  tree.NodeID
		err error
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
			go func(id tree.NodeID) {
				done <- completion{id, task(id)}
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
		c := <-done
		running--
		finished++
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
