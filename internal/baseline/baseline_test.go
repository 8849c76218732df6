package baseline_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

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

// activationBookingPeak is what Activation needs to process AO strictly
// sequentially: the running maximum of Σ_{active}(n+f) + Σ finished
// outputs. A memory of at least this value guarantees progress.
func activationBookingPeak(t *tree.Tree, ao []tree.NodeID) float64 {
	// Sequential execution in AO order, one task at a time, booking
	// n_i+f_i at activation: the booked memory right after activating i
	// equals Σ outputs of finished-unconsumed tasks + n_i + f_i, which is
	// exactly the sequential traversal memory of AO.
	peak, err := order.PeakMemory(t, ao)
	if err != nil {
		panic(err)
	}
	return peak
}

func TestActivationCompletesWithSequentialPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 80; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, _ := order.MinMemPostOrder(tr)
		m := activationBookingPeak(tr, ao.Seq)
		for _, p := range []int{1, 4, 16} {
			s, err := baseline.NewActivation(tr, m, ao, ao)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(tr, p, s, &sim.Options{CheckMemory: true, Bound: m})
			if err != nil {
				t.Fatalf("n=%d p=%d m=%g: %v", tr.Len(), p, m, err)
			}
			if res.PeakMem > m+1e-9 {
				t.Fatalf("model memory %g over bound %g", res.PeakMem, m)
			}
		}
	}
}

func TestActivationDeadlocksUnderTinyMemory(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{5}, []float64{5}, nil)
	ao := order.NaturalPostOrder(tr)
	s, _ := baseline.NewActivation(tr, 3, ao, ao)
	if _, err := sim.Run(tr, 1, s, nil); err == nil {
		t.Fatal("expected deadlock")
	}
}

func TestActivationBooksMoreThanMemBookingOnChain(t *testing.T) {
	// The §3.1 chain T1 -> T2 -> T3: Activation books n_i + f_i for all
	// three tasks simultaneously when memory allows; MemBooking reuses
	// the chain's memory.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 1},
		[]float64{2, 2, 2}, []float64{3, 3, 3}, []float64{1, 1, 1})
	ao, _ := order.MinMemPostOrder(tr)
	m := 100.0
	act, _ := baseline.NewActivation(tr, m, ao, ao)
	resA, err := sim.Run(tr, 4, act, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := core.NewMemBooking(tr, m, ao, ao)
	resB, err := sim.Run(tr, 4, mb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resA.PeakBooked <= resB.PeakBooked {
		t.Fatalf("Activation booked %g, MemBooking %g: want Activation strictly larger",
			resA.PeakBooked, resB.PeakBooked)
	}
	if resA.PeakBooked != 15 { // (2+3)*3
		t.Fatalf("Activation peak booked = %g, want 15", resA.PeakBooked)
	}
}

func TestActivationRejectsBadOrders(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0}, nil, nil, nil)
	cp := order.CriticalPathOrder(tr)
	po := order.NaturalPostOrder(tr)
	if _, err := baseline.NewActivation(tr, 1, cp, po); err == nil {
		t.Error("non-topological AO accepted")
	}
	short := &order.Order{Name: "s", Seq: po.Seq[:1]}
	if _, err := baseline.NewActivation(tr, 1, po, short); err == nil {
		t.Error("short EO accepted")
	}
}

func TestToReductionTreeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(50))
		red := baseline.ToReductionTree(tr)
		if !baseline.IsReductionTree(red.Tree) {
			t.Fatalf("transform did not produce a reduction tree (n=%d)", tr.Len())
		}
		// Every original node keeps its parent and output.
		for i := 0; i < red.Orig; i++ {
			id := tree.NodeID(i)
			if red.Tree.Out(id) != tr.Out(id) {
				t.Fatalf("output of node %d changed", i)
			}
			if red.Tree.Parent(id) != tr.Parent(id) {
				t.Fatalf("parent of node %d changed", i)
			}
		}
		// MemNeeded never shrinks for original nodes.
		for i := 0; i < red.Orig; i++ {
			id := tree.NodeID(i)
			if red.Tree.MemNeeded(id) < tr.MemNeeded(id)-1e-9 {
				t.Fatalf("MemNeeded(%d) shrank: %g -> %g", i,
					tr.MemNeeded(id), red.Tree.MemNeeded(id))
			}
		}
		// Fictitious nodes are zero-time leaves.
		for k := red.Orig; k < red.Tree.Len(); k++ {
			id := tree.NodeID(k)
			if !red.Tree.IsLeaf(id) || red.Tree.Time(id) != 0 {
				t.Fatalf("fictitious node %d is not a zero-time leaf", k)
			}
			if !red.IsFictitious(id) {
				t.Fatalf("IsFictitious(%d) = false", k)
			}
		}
	}
}

func TestRedTreeOnAlreadyReducedTreeIsIdentity(t *testing.T) {
	// A reduction tree: n=0 everywhere, outputs shrink toward the root.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0, 0},
		nil, []float64{4, 3, 3}, nil)
	red := baseline.ToReductionTree(tr)
	if red.Tree.Len() != tr.Len() {
		t.Fatalf("identity transform added %d nodes", red.Tree.Len()-tr.Len())
	}
}

func TestMemBookingRedTreeCompletesWithEnoughMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(50))
		ao, _ := order.MinMemPostOrder(tr)
		s, err := baseline.NewMemBookingRedTree(tr, math.Inf(1), ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		// Generous memory: Σ A_i total is certainly enough; use total
		// data volume × 4.
		total := 0.0
		for i := 0; i < tr.Len(); i++ {
			total += tr.Exec(tree.NodeID(i)) + tr.Out(tree.NodeID(i))
		}
		m := 4 * total
		s, err = baseline.NewMemBookingRedTree(tr, m, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(s.Tree(), 4, s, &sim.Options{CheckMemory: true, Bound: m})
		if err != nil {
			t.Fatalf("n=%d: %v", tr.Len(), err)
		}
		// Makespan must match the original tree total work with p=1...
		// here just check completion and memory discipline.
		if res.PeakMem > m+1e-9 {
			t.Fatalf("model memory %g over bound %g", res.PeakMem, m)
		}
	}
}

// The booking plan must cover the live memory of every run: the simulator
// check (used ≤ booked) is the key safety property; exercise it under the
// tightest memory that still lets the plan activate everything serially.
func TestMemBookingRedTreeTightMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	completed, deadlocked := 0, 0
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(40))
		ao, peak := order.MinMemPostOrder(tr)
		// At 3x the sequential peak many trees complete; some deadlock,
		// which is a documented behaviour — but memory discipline must
		// hold either way.
		m := 3 * peak
		s, err := baseline.NewMemBookingRedTree(tr, m, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(s.Tree(), 4, s, &sim.Options{CheckMemory: true, Bound: m})
		var dead *core.ErrDeadlock
		switch {
		case err == nil:
			completed++
		case errors.As(err, &dead):
			deadlocked++
		default:
			t.Fatalf("n=%d: %v", tr.Len(), err)
		}
	}
	if completed == 0 {
		t.Fatal("RedTree never completed at 3x peak memory")
	}
	t.Logf("redtree at 3x peak: %d completed, %d deadlocked", completed, deadlocked)
}

func TestMemBookingRedTreeSequentialMakespanUnchanged(t *testing.T) {
	// Fictitious tasks take zero time, so total work is preserved.
	rng := rand.New(rand.NewSource(79))
	tr := randTree(rng, 30)
	ao, _ := order.MinMemPostOrder(tr)
	s, _ := baseline.NewMemBookingRedTree(tr, 1e12, ao, ao)
	res, err := sim.Run(s.Tree(), 1, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-tr.TotalWork()) > 1e-9 {
		t.Fatalf("sequential makespan %g != original total work %g", res.Makespan, tr.TotalWork())
	}
}

// New is the one construction site of the heuristic set: every name in
// Names builds, completes on the run tree New hands back (the reduction
// transform for RedTree) with generous memory, and Resets to a second
// bound; anything else is ErrUnknown.
func TestNew(t *testing.T) {
	tr := randTree(rand.New(rand.NewSource(67)), 60)
	ao, peak := order.MinMemPostOrder(tr)
	for _, name := range baseline.Names {
		s, run, err := baseline.New(name, tr, 2*peak, ao, ao)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q) built %q", name, s.Name())
		}
		if wantRun := name == "MemBookingRedTree"; (run != tr) != wantRun {
			t.Errorf("%s: run tree is the input tree = %v, want %v", name, run == tr, !wantRun)
		}
		for _, m := range []float64{2 * peak, 10 * peak} {
			if err := s.Reset(m); err != nil {
				t.Fatalf("%s: Reset(%g): %v", name, m, err)
			}
			res, err := sim.Run(run, 4, s, &sim.Options{CheckMemory: true, Bound: m})
			if err != nil {
				t.Fatalf("%s at bound %g: %v", name, m, err)
			}
			if res.Makespan <= 0 {
				t.Errorf("%s at bound %g: makespan %g", name, m, res.Makespan)
			}
		}
	}
	s, run, err := baseline.New("Magic", tr, 2*peak, ao, ao)
	if !errors.Is(err, baseline.ErrUnknown) || s != nil || run != nil {
		t.Fatalf("New(Magic) = %v, %v, %v; want nil, nil, ErrUnknown", s, run, err)
	}
	if got, want := err.Error(), `unknown heuristic "Magic"`; got != want {
		t.Errorf("error reads %q, want %q", got, want)
	}
}
