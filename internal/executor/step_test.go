package executor_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/moldable"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// A sim.Wide task holds its width of the workers until it completes. The
// tree forces a second wave while the first still runs: leaves A and B
// start together, each widened to 2 of the 4 workers, and B's body waits
// until X, A's parent, has started. A driver that counted tasks instead
// of widths offered X 3 processors beside B's 2.
func TestRunHoldsWideWidths(t *testing.T) {
	const r, x, b, a = 0, 1, 2, 3
	tr := tree.MustNew([]tree.NodeID{tree.None, r, r, x}, nil, []float64{1, 1, 1, 1}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	const workers = 4
	s, err := moldable.NewMemBookingMoldable(tr, 1e9, ao, ao, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inUse, maxInUse, widest := 0, 0, 0
	xStarted := make(chan struct{})
	res, err := executor.Run(tr, s, workers, func(id tree.NodeID) error {
		q, _, _ := s.Shape(id)
		mu.Lock()
		inUse += q
		maxInUse, widest = max(maxInUse, inUse), max(widest, q)
		mu.Unlock()
		switch id {
		case x:
			close(xStarted)
		case b:
			<-xStarted
		}
		mu.Lock()
		inUse -= q
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if widest < 2 {
		t.Fatalf("no task was widened (widest %d): the test no longer exercises widths", widest)
	}
	if maxInUse > workers {
		t.Fatalf("tasks held %d processors at once on %d workers", maxInUse, workers)
	}
	// At most three unit outputs are resident at once; the widened tasks'
	// workspace comes on top.
	if res.PeakMem <= 3 {
		t.Fatalf("PeakMem %g leaves out the widened tasks' workspace", res.PeakMem)
	}
}

// batchLog records the OnFinish batches of the scheduler it wraps and
// calls onFinish, if set, after each.
type batchLog struct {
	core.Scheduler
	batches  [][]tree.NodeID
	onFinish func()
}

func (l *batchLog) OnFinish(batch []tree.NodeID) {
	l.batches = append(l.batches, append([]tree.NodeID(nil), batch...))
	l.Scheduler.OnFinish(batch)
	if l.onFinish != nil {
		l.onFinish()
	}
}

// workersAlive reports whether any goroutine started by executor.Run
// exists.
func workersAlive() bool {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], []byte("created by repro/internal/executor.Run"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Completions that are waiting together reach the scheduler as one
// OnFinish batch. Leaf C finishes first; its OnFinish, which runs on the
// driver's goroutine, opens the gate the siblings A and B wait on and
// returns only once every worker goroutine has exited, that is once both
// completions are queued. The driver's next wake must take both.
func TestRunBatchesWaitingCompletions(t *testing.T) {
	const r, a, b, c = 0, 1, 2, 3
	tr := tree.MustNew([]tree.NodeID{tree.None, r, r, r}, nil, []float64{1, 1, 1, 1}, nil)
	gate := make(chan struct{})
	s := &batchLog{Scheduler: newMB(t, tr, 100)}
	s.onFinish = func() {
		if len(s.batches) == 1 {
			close(gate)
			for workersAlive() {
				runtime.Gosched()
			}
		}
	}
	_, err := executor.Run(tr, s, 3, func(id tree.NodeID) error {
		if id == a || id == b {
			<-gate
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]tree.NodeID{{c}, {a, b}, {r}}
	if len(s.batches) == 3 && s.batches[1][0] == b {
		want[1] = []tree.NodeID{b, a}
	}
	if !reflect.DeepEqual(s.batches, want) {
		t.Fatalf("OnFinish batches %v, want %v", s.batches, want)
	}
}

// selectLog records every task the scheduler it wraps selects, in order.
type selectLog struct {
	core.Scheduler
	seq []tree.NodeID
}

func (l *selectLog) Select(free int) []tree.NodeID {
	sel := l.Scheduler.Select(free)
	l.seq = append(l.seq, sel...)
	return sel
}

// The live and the simulated driver run one step, so on one processor,
// where every wake carries exactly one completion, they make the same
// launches, reach the same verdict and report bit-equal peaks. With the
// simulator's CheckMemory audit this is the executor's memory-accounting
// cover.
func TestLiveMatchesSimulatedOnOneProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	deadlocks := 0
	for trial := 0; trial < 200; trial++ {
		orig := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(orig)
		eo := order.CriticalPathOrder(orig)
		for _, m := range []float64{peak, 1.5 * peak} {
			for _, name := range baseline.Names {
				type outcome struct {
					seq                 []tree.NodeID
					peakMem, peakBooked float64
					dead                *core.ErrDeadlock
				}
				run := func(live bool) outcome {
					s, tr, err := baseline.New(name, orig, m, ao, eo)
					if err != nil {
						t.Fatal(err)
					}
					rec := &selectLog{Scheduler: s}
					var o outcome
					if live {
						var res *executor.Result
						res, err = executor.Run(tr, rec, 1, func(tree.NodeID) error { return nil })
						if err == nil {
							o.peakMem, o.peakBooked = res.PeakMem, res.PeakBooked
						}
					} else {
						var res *sim.Result
						res, err = sim.Run(tr, 1, rec, &sim.Options{NoSchedTime: true})
						if err == nil {
							o.peakMem, o.peakBooked = res.PeakMem, res.PeakBooked
						}
					}
					if err != nil && !errors.As(err, &o.dead) {
						t.Fatalf("%s trial %d live=%v: %v", name, trial, live, err)
					}
					o.seq = rec.seq
					return o
				}
				live, simulated := run(true), run(false)
				if !reflect.DeepEqual(live, simulated) {
					t.Fatalf("%s trial %d M=%g: live %+v, simulated %+v", name, trial, m, live, simulated)
				}
				if live.dead != nil {
					deadlocks++
				}
			}
		}
	}
	if deadlocks == 0 {
		t.Fatal("no run deadlocked: the verdicts were never compared on a deadlock")
	}
}
