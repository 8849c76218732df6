package executor_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/order"
	"repro/internal/tree"
)

func randTree(rng *rand.Rand, n int) *tree.Tree {
	p := make([]tree.NodeID, n)
	out := make([]float64, n)
	exec := make([]float64, n)
	p[0] = tree.None
	for i := 1; i < n; i++ {
		p[i] = tree.NodeID(rng.Intn(i))
	}
	for i := 0; i < n; i++ {
		out[i] = float64(1 + rng.Intn(9))
		exec[i] = float64(rng.Intn(4))
	}
	return tree.MustNew(p, exec, out, nil)
}

func newMB(t *testing.T, tr *tree.Tree, m float64) core.Scheduler {
	t.Helper()
	ao, _ := order.MinMemPostOrder(tr)
	s, err := core.NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 20; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		ao, peak := order.MinMemPostOrder(tr)
		s, _ := core.NewMemBooking(tr, peak, ao, ao)
		counts := make([]int32, tr.Len())
		res, err := executor.Run(tr, s, 4, func(id tree.NodeID) error {
			atomic.AddInt32(&counts[id], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("task %d ran %d times", i, c)
			}
		}
		if res.Tasks != tr.Len() || res.PeakMem > peak+1e-9 {
			t.Fatalf("result %+v (peak bound %g)", res, peak)
		}
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	tr := randTree(rng, 60)
	s := newMB(t, tr, 1e9)
	var mu sync.Mutex
	finished := make([]bool, tr.Len())
	_, err := executor.Run(tr, s, 8, func(id tree.NodeID) error {
		mu.Lock()
		for _, c := range tr.Children(id) {
			if !finished[c] {
				mu.Unlock()
				return errors.New("dependency violation")
			}
		}
		mu.Unlock()
		time.Sleep(time.Microsecond)
		mu.Lock()
		finished[id] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesTaskError(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 0}, nil, []float64{1, 1, 1}, nil)
	s := newMB(t, tr, 100)
	boom := errors.New("boom")
	_, err := executor.Run(tr, s, 2, func(id tree.NodeID) error {
		if id == 1 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunValidatesArguments(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	s := newMB(t, tr, 100)
	if _, err := executor.Run(tr, s, 0, func(tree.NodeID) error { return nil }); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := executor.Run(tr, s, 1, nil); err == nil {
		t.Error("nil task accepted")
	}
}

func TestRunDeadlockReported(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{5}, []float64{5}, nil)
	s := newMB(t, tr, 3) // can never activate
	_, err := executor.Run(tr, s, 1, func(tree.NodeID) error { return nil })
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	var dead *core.ErrDeadlock
	if !errors.As(err, &dead) {
		t.Fatalf("deadlock error is %T, want *core.ErrDeadlock", err)
	}
	if dead.Scheduler != s.Name() || dead.Finished != 0 || dead.Total != 1 {
		t.Fatalf("deadlock fields %+v", dead)
	}
}

// overSelector wraps a scheduler and returns one more task than asked
// for whenever it can, provoking the executor's worker-cap guard.
type overSelector struct {
	core.Scheduler
	extra []tree.NodeID // tasks held back to over-select with later
}

func (o *overSelector) Select(free int) []tree.NodeID {
	out := append([]tree.NodeID(nil), o.extra...)
	o.extra = nil
	out = append(out, o.Scheduler.Select(free+1)...)
	if len(out) > free+1 {
		o.extra = out[free+1:]
		out = out[:free+1]
	}
	return out
}

func TestRunRejectsOverSelection(t *testing.T) {
	// A star of 4 leaves with ample memory: the wrapped scheduler happily
	// hands out free+1 ready leaves, which the executor must refuse to run
	// beyond the worker cap.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 0, 0, 0}, nil, []float64{1, 1, 1, 1, 1}, nil)
	s := &overSelector{Scheduler: newMB(t, tr, 100)}
	var started atomic.Int32
	_, err := executor.Run(tr, s, 2, func(id tree.NodeID) error {
		started.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "over-selected") {
		t.Fatalf("err = %v, want over-selection error", err)
	}
	if got := started.Load(); got > 2 {
		t.Fatalf("%d tasks ran concurrently past the cap of 2", got)
	}
}

// The executable witness of Theorem 1: tasks genuinely allocate their
// model memory through a limiter set to exactly the sequential peak, and
// no allocation ever fails.
func TestRealAllocationsStayUnderBound(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 10; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		s, _ := core.NewMemBooking(tr, peak, ao, ao)
		lim := executor.NewMemoryLimiter(peak)
		var mu sync.Mutex
		childFreed := make([]bool, tr.Len())
		_, err := executor.Run(tr, s, 4, func(id tree.NodeID) error {
			// Allocate execution + output data; inputs are already live.
			if err := lim.Alloc(tr.Exec(id) + tr.Out(id)); err != nil {
				return err
			}
			time.Sleep(time.Duration(1+tr.Out(id)) * time.Microsecond)
			// Free execution data and the children's outputs.
			lim.Free(tr.Exec(id))
			mu.Lock()
			for _, c := range tr.Children(id) {
				if !childFreed[c] {
					childFreed[c] = true
					lim.Free(tr.Out(c))
				}
			}
			if tr.Parent(id) == tree.None {
				lim.Free(tr.Out(id))
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d peak=%g: %v", tr.Len(), peak, err)
		}
		if lim.Peak() > peak+1e-9 {
			t.Fatalf("limiter peak %g exceeds bound %g", lim.Peak(), peak)
		}
	}
}

func TestMemoryLimiter(t *testing.T) {
	l := executor.NewMemoryLimiter(10)
	if err := l.Alloc(7); err != nil {
		t.Fatal(err)
	}
	if err := l.Alloc(4); err == nil {
		t.Fatal("over-allocation accepted")
	}
	l.Free(7)
	if err := l.Alloc(10); err != nil {
		t.Fatal(err)
	}
	if l.Peak() != 10 {
		t.Fatalf("peak = %v", l.Peak())
	}
}
