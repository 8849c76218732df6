package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// randTree builds a random tree with integer attributes.
func randTree(rng *rand.Rand, n int) *tree.Tree {
	p := make([]tree.NodeID, n)
	exec := make([]float64, n)
	out := make([]float64, n)
	tm := make([]float64, n)
	p[0] = tree.None
	for i := 1; i < n; i++ {
		p[i] = tree.NodeID(rng.Intn(i))
	}
	for i := 0; i < n; i++ {
		exec[i] = float64(rng.Intn(5))
		out[i] = float64(1 + rng.Intn(9))
		tm[i] = float64(1 + rng.Intn(7))
	}
	return tree.MustNew(p, exec, out, tm)
}

func newMB(t *testing.T, tr *tree.Tree, m float64) *core.MemBooking {
	t.Helper()
	ao, _ := order.MinMemPostOrder(tr)
	s, err := core.NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMemBookingRejectsBadInput(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0}, nil, nil, nil)
	cp := order.CriticalPathOrder(tr) // not topological
	po := order.NaturalPostOrder(tr)
	if _, err := core.NewMemBooking(tr, 10, cp, po); err == nil {
		t.Error("non-topological AO accepted")
	}
	if _, err := core.NewMemBooking(tr, math.NaN(), po, po); err == nil {
		t.Error("NaN bound accepted")
	}
	short := &order.Order{Name: "short", Seq: po.Seq[:1]}
	if _, err := core.NewMemBooking(tr, 10, po, short); err == nil {
		t.Error("short EO accepted")
	}
}

// Theorem 1: with M = peak(AO), MemBooking processes the whole tree, for
// any number of processors and any execution order.
func TestMemBookingTerminatesAtExactPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		for _, p := range []int{1, 2, 4, 16} {
			for _, eoName := range []string{order.NameCP, order.NameMemPO, order.NamePerfPO} {
				eo, _, err := order.ByName(tr, eoName)
				if err != nil {
					t.Fatal(err)
				}
				s, err := core.NewMemBooking(tr, peak, ao, eo)
				if err != nil {
					t.Fatal(err)
				}
				s.CheckInvariants = tr.Len() <= 30
				res, err := sim.Run(tr, p, s, &sim.Options{CheckMemory: true, Bound: peak})
				if err != nil {
					t.Fatalf("n=%d p=%d eo=%s peak=%g: %v", tr.Len(), p, eoName, peak, err)
				}
				if s.InvariantErr != nil {
					t.Fatalf("invariant violated (n=%d p=%d eo=%s): %v", tr.Len(), p, eoName, s.InvariantErr)
				}
				if res.PeakMem > peak+1e-9 {
					t.Fatalf("model memory %g exceeded bound %g", res.PeakMem, peak)
				}
			}
		}
	}
}

// With one processor and M = peak(AO), the makespan equals the total work.
func TestMemBookingSequentialMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(50))
		ao, peak := order.MinMemPostOrder(tr)
		s, _ := core.NewMemBooking(tr, peak, ao, ao)
		res, err := sim.Run(tr, 1, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-tr.TotalWork()) > 1e-9 {
			t.Fatalf("sequential makespan %g != total work %g", res.Makespan, tr.TotalWork())
		}
	}
}

// With unlimited memory and processors, the makespan is the critical path.
func TestMemBookingCriticalPathAtInfinity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(50))
		ao, _ := order.MinMemPostOrder(tr)
		eo := order.CriticalPathOrder(tr)
		s, _ := core.NewMemBooking(tr, 1e12, ao, eo)
		res, err := sim.Run(tr, tr.Len(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-tr.CriticalPath()) > 1e-9 {
			t.Fatalf("makespan %g != critical path %g", res.Makespan, tr.CriticalPath())
		}
	}
}

// More memory never breaks anything, and (weak monotonicity sanity) the
// run still completes with the invariants intact.
func TestMemBookingLargerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr := randTree(rng, 80)
	ao, peak := order.MinMemPostOrder(tr)
	prev := math.Inf(1)
	for _, factor := range []float64{1, 1.5, 2, 4, 8, 100} {
		m := peak * factor
		s, _ := core.NewMemBooking(tr, m, ao, ao)
		res, err := sim.Run(tr, 8, s, &sim.Options{CheckMemory: true, Bound: m})
		if err != nil {
			t.Fatalf("factor %g: %v", factor, err)
		}
		// Not guaranteed monotone in theory, but on this fixed seed the
		// makespan should never get dramatically worse with more memory.
		if res.Makespan > prev*1.5 {
			t.Fatalf("makespan %g at factor %g much worse than %g", res.Makespan, factor, prev)
		}
		if res.Makespan < prev {
			prev = res.Makespan
		}
	}
}

// Below the guarantee threshold MemBooking may deadlock, and the
// simulator must report it rather than loop.
func TestMemBookingDeadlockDetected(t *testing.T) {
	// Single node needing 10 with bound 5: nothing can ever be activated.
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{5}, []float64{5}, nil)
	s := newMB(t, tr, 5)
	_, err := sim.Run(tr, 1, s, nil)
	var dead *core.ErrDeadlock
	if !errors.As(err, &dead) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// The chain example of §3.1: MemBooking books at most the sequential peak
// for a chain, unlike Activation which books n_i+f_i for every task.
func TestMemBookingChainBooksLikeSequential(t *testing.T) {
	// Chain 0 <- 1 <- 2 with n=1, f=1 everywhere.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 1},
		[]float64{1, 1, 1}, []float64{1, 1, 1}, []float64{1, 1, 1})
	ao, peak := order.MinMemPostOrder(tr)
	// peak = max over chain steps = f_child + n + f = 3.
	if peak != 3 {
		t.Fatalf("chain peak = %g, want 3", peak)
	}
	s, _ := core.NewMemBooking(tr, peak, ao, ao)
	res, err := sim.Run(tr, 4, s, &sim.Options{CheckMemory: true, Bound: peak})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBooked > peak+1e-9 {
		t.Fatalf("booked %g, want ≤ %g", res.PeakBooked, peak)
	}
	if res.Makespan != 3 {
		t.Fatalf("chain makespan = %g, want 3", res.Makespan)
	}
}

// Memory parked on a candidate whose BookedBySubtree was initialised must
// remain reachable (§5.1 optimisation): exercised by a deep tree under
// minimum memory with many events.
func TestMemBookingDeepTreeTightMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	// A long chain with random side leaves: depth and dispatch walks.
	n := 400
	p := make([]tree.NodeID, n)
	out := make([]float64, n)
	ex := make([]float64, n)
	tm := make([]float64, n)
	p[0] = tree.None
	spine := tree.NodeID(0)
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			p[i] = spine // side leaf
		} else {
			p[i] = spine
			spine = tree.NodeID(i)
		}
		out[i] = float64(1 + rng.Intn(5))
		ex[i] = float64(rng.Intn(3))
		tm[i] = float64(1 + rng.Intn(4))
	}
	tr := tree.MustNew(p, ex, out, tm)
	ao, peak := order.MinMemPostOrder(tr)
	s, _ := core.NewMemBooking(tr, peak, ao, ao)
	s.CheckInvariants = true
	if _, err := sim.Run(tr, 3, s, &sim.Options{CheckMemory: true, Bound: peak}); err != nil {
		t.Fatal(err)
	}
	if s.InvariantErr != nil {
		t.Fatal(s.InvariantErr)
	}
}

func TestMemBookingName(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	s := newMB(t, tr, 10)
	if s.Name() != "MemBooking" {
		t.Fatalf("name = %q", s.Name())
	}
}
