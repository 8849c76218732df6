// Package executor runs a task tree for real: a pool of worker
// goroutines executes user-supplied task bodies while a memory-aware
// Scheduler (typically core.MemBooking) decides, at every completion,
// which tasks may start. This is the "runtime execution" the paper's
// abstract argues MemBooking is cheap enough for: task durations are
// unknown in advance, only the tree shape and data sizes are.
// Run drives the simulator's own step, sim.RunState, on a wall clock, so
// the accounting, the over-selection check, sim.Wide widths and the
// *core.ErrDeadlock exit are the simulator's.
package executor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
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

// completion is a task's outcome, sent by its worker goroutine.
type completion struct {
	id  int32
	err error
}

// Run executes every task of t on workers processors, in an order chosen
// dynamically by s: a task starts only when the scheduler releases it, so
// the model memory never exceeds the scheduler's bound. The completions
// waiting when Run wakes form one OnFinish batch. The first error stops
// new launches, and Run returns it once the running tasks are done.
func Run(t *tree.Tree, s core.Scheduler, workers int, task Task) (*Result, error) {
	if task == nil {
		return nil, fmt.Errorf("executor: nil task body")
	}
	var st sim.RunState
	if err := st.Start(t, workers, s, &sim.Options{NoSchedTime: true}); err != nil {
		return nil, err
	}
	done := make(chan completion, workers) // every running task holds ≥ 1 worker
	start := time.Now()
	var ids []int32
	var err error
	running := 0
	for {
		if err == nil {
			st.Finish(ids)
			var spans []sim.Span
			spans, err = st.Launch(time.Since(start).Seconds())
			for _, sp := range spans {
				running++
				go func(id tree.NodeID) { done <- completion{int32(id), task(id)} }(sp.Node)
			}
		}
		if running == 0 {
			break
		}
		// Wait for one completion, then take every one already queued.
		ids = ids[:0]
		for wait := true; wait || len(done) > 0; wait = false {
			c := <-done
			running--
			ids = append(ids, c.id)
			if c.err != nil && err == nil {
				err = fmt.Errorf("executor: task %d: %w", c.id, c.err)
			}
		}
	}
	wall := time.Since(start)
	res, err := st.End(wall.Seconds(), err)
	if err != nil {
		return nil, err
	}
	return &Result{Wall: wall, PeakMem: res.PeakMem, PeakBooked: res.PeakBooked, Tasks: res.Events}, nil
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
