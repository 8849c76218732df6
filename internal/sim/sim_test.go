package sim_test

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

func randTree(rng *rand.Rand, n int) *tree.Tree {
	p := make([]tree.NodeID, n)
	out := make([]float64, n)
	tm := make([]float64, n)
	p[0] = tree.None
	for i := 1; i < n; i++ {
		p[i] = tree.NodeID(rng.Intn(i))
	}
	for i := 0; i < n; i++ {
		out[i] = float64(1 + rng.Intn(9))
		tm[i] = float64(1 + rng.Intn(7))
	}
	return tree.MustNew(p, nil, out, tm)
}

func mb(t *testing.T, tr *tree.Tree, m float64) core.Scheduler {
	t.Helper()
	ao, _ := order.MinMemPostOrder(tr)
	s, err := core.NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunRejectsBadProcessorCount(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	if _, err := sim.Run(tr, 0, mb(t, tr, 10), nil); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// A Clock under NoSchedTime would be silently ignored (there is no
// measurement for it to drive); Run must reject the combination.
func TestRunRejectsClockUnderNoSchedTime(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	opts := &sim.Options{NoSchedTime: true, Clock: time.Now}
	if _, err := sim.Run(tr, 1, mb(t, tr, 10), opts); err == nil {
		t.Fatal("Clock accepted under NoSchedTime")
	}
	// Each setting alone stays valid.
	if _, err := sim.Run(tr, 1, mb(t, tr, 10), &sim.Options{NoSchedTime: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tr, 1, mb(t, tr, 10), &sim.Options{Clock: time.Now}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTimeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		s, _ := core.NewMemBooking(tr, 2*peak, ao, ao)
		res, err := sim.Run(tr, 4, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.BusyTime-tr.TotalWork()) > 1e-9 {
			t.Fatalf("busy time %g != total work %g", res.BusyTime, tr.TotalWork())
		}
		if res.Events != tr.Len() {
			t.Fatalf("%d events for %d tasks", res.Events, tr.Len())
		}
		if u := res.Utilization(4); u <= 0 || u > 1+1e-9 {
			t.Fatalf("utilization %g out of range", u)
		}
	}
}

func TestMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		for _, p := range []int{1, 3, 8} {
			s, _ := core.NewMemBooking(tr, 2*peak, ao, ao)
			res, err := sim.Run(tr, p, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			lbWork := tr.TotalWork() / float64(p)
			lbCP := tr.CriticalPath()
			if res.Makespan < lbWork-1e-9 || res.Makespan < lbCP-1e-9 {
				t.Fatalf("makespan %g below lower bounds (%g, %g)", res.Makespan, lbWork, lbCP)
			}
			if res.Makespan > tr.TotalWork()+1e-9 {
				t.Fatalf("makespan %g above total work %g", res.Makespan, tr.TotalWork())
			}
		}
	}
}

func TestZeroDurationTasks(t *testing.T) {
	// Chain with a zero-time middle task must still complete, in order.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 1},
		nil, []float64{1, 1, 1}, []float64{2, 0, 3})
	s := mb(t, tr, 100)
	res, err := sim.Run(tr, 2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Fatalf("makespan %g, want 5", res.Makespan)
	}
}

func TestMemTraceMonotoneTime(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tr := randTree(rng, 40)
	ao, peak := order.MinMemPostOrder(tr)
	s, _ := core.NewMemBooking(tr, peak, ao, ao)
	rec := &sim.Trace{}
	if _, err := sim.Run(tr, 4, s, &sim.Options{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Mem) == 0 {
		t.Fatal("no memory samples")
	}
	last := -1.0
	for _, m := range rec.Mem {
		if m.Time < last {
			t.Fatalf("trace time went backwards: %g after %g", m.Time, last)
		}
		last = m.Time
		if m.Used > m.Booked+1e-9 {
			t.Fatalf("trace: used %g > booked %g", m.Used, m.Booked)
		}
	}
}

func TestDeadlockErrorText(t *testing.T) {
	e := &core.ErrDeadlock{Scheduler: "X", Finished: 1, Total: 3, Booked: 2.5}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
}

// overSelector returns more tasks than processors to provoke the engine's
// over-selection guard.
type overSelector struct{ t *tree.Tree }

func (o *overSelector) Name() string                 { return "over" }
func (o *overSelector) Init() error                  { return nil }
func (o *overSelector) OnFinish(batch []tree.NodeID) {}
func (o *overSelector) BookedMemory() float64        { return 0 }
func (o *overSelector) Select(free int) []tree.NodeID {
	out := make([]tree.NodeID, 0, free+1)
	for i := 0; i <= free; i++ {
		out = append(out, tree.NodeID(i%o.t.Len()))
	}
	return out
}

func TestOverSelectionGuard(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 0}, nil, nil, []float64{1, 1, 1})
	if _, err := sim.Run(tr, 1, &overSelector{tr}, nil); err == nil {
		t.Fatal("over-selection not detected")
	}
}

// sim.Run is inlined and its Runner stays on the caller's stack, so
// every byte a Runner gains grows the frame of each caller that runs one
// per request (service.schedule) and every goroutine stack under it.
func TestRunnerStaysSmall(t *testing.T) {
	const limit = 256
	if size := unsafe.Sizeof(sim.Runner{}); size > limit {
		t.Errorf("sim.Runner is %d bytes, want ≤ %d: a Runner that grew by "+
			"1.5 kB made svc_jobs +4 to +11 %% slower through larger stacks "+
			"(DESIGN §5, the event queue); allocate large parts apart", size, limit)
	}
}
