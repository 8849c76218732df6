package moldable_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
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

func TestProfileValidate(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0}, nil, nil, nil)
	p := moldable.DefaultProfile(tr)
	if err := p.Validate(tr); err != nil {
		t.Fatal(err)
	}
	p.Alpha[0] = 1.5
	if err := p.Validate(tr); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	short := &moldable.Profile{Alpha: []float64{0}, Workspace: []float64{0}, MaxWidth: []int32{0}}
	if err := short.Validate(tr); err == nil {
		t.Fatal("short profile accepted")
	}
}

func TestProfileTimeAmdahl(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, nil, []float64{10})
	p := moldable.RigidProfile(tr)
	p.Alpha[0] = 0.8
	if got := p.Time(tr, 0, 1); got != 10 {
		t.Fatalf("q=1 time %v", got)
	}
	// q=4: 10*(0.2 + 0.8/4) = 4.
	if got := p.Time(tr, 0, 4); math.Abs(got-4) > 1e-12 {
		t.Fatalf("q=4 time %v, want 4", got)
	}
	// Infinite width floor: sequential fraction remains.
	if got := p.Time(tr, 0, 1000); got < 2 {
		t.Fatalf("Amdahl floor violated: %v", got)
	}
}

func TestProfileExtraMem(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, nil, nil)
	p := moldable.RigidProfile(tr)
	p.Workspace[0] = 3
	if p.ExtraMem(0, 1) != 0 || p.ExtraMem(0, 4) != 9 {
		t.Fatalf("extra mem = %v / %v", p.ExtraMem(0, 1), p.ExtraMem(0, 4))
	}
}

// With a rigid profile, the moldable pipeline must reproduce the rigid
// simulator exactly.
func TestRigidProfileMatchesRigidSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	for trial := 0; trial < 40; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		m := 2 * peak
		rigid, _ := core.NewMemBooking(tr, m, ao, ao)
		want, err := sim.Run(tr, 4, rigid, nil)
		if err != nil {
			t.Fatal(err)
		}
		prof := moldable.RigidProfile(tr)
		ms, err := moldable.NewMemBookingMoldable(tr, m, ao, ao, prof, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(tr, 4, ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Makespan-want.Makespan) > 1e-9 {
			t.Fatalf("rigid-profile makespan %g != rigid %g (n=%d)", got.Makespan, want.Makespan, tr.Len())
		}
		if got.WideTasks != 0 || got.MaxWidth > 1 {
			t.Fatalf("rigid profile granted wide tasks: %+v", got)
		}
	}
}

// The Theorem 1 guarantee survives molding: at M = peak(AO), widths
// degrade to 1 when workspaces do not fit, and the tree always completes.
func TestMoldableCompletesAtExactPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, peak := order.MinMemPostOrder(tr)
		prof := moldable.DefaultProfile(tr)
		ms, err := moldable.NewMemBookingMoldable(tr, peak, ao, ao, prof, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, 8, ms, &sim.Options{CheckMemory: true, Bound: peak})
		if err != nil {
			t.Fatalf("n=%d: %v", tr.Len(), err)
		}
		if res.PeakMem > peak+1e-9 {
			t.Fatalf("peak %g over bound %g", res.PeakMem, peak)
		}
	}
}

// A root-heavy tree: one giant, highly parallel root atop cheap leaves.
// Molding must beat the rigid schedule when memory allows.
func TestMoldableBeatsRigidOnRootHeavyTree(t *testing.T) {
	b := tree.NewBuilder(9)
	root := b.AddRoot(10, 10, 100) // huge root
	for i := 0; i < 8; i++ {
		b.Add(root, 0, 1, 1)
	}
	tr := b.MustBuild()
	ao, peak := order.MinMemPostOrder(tr)
	m := 4 * peak
	prof := moldable.RigidProfile(tr)
	prof.Alpha[root] = 0.95
	prof.MaxWidth[root] = 0
	prof.Workspace[root] = 1

	rigid, _ := core.NewMemBooking(tr, m, ao, ao)
	want, err := sim.Run(tr, 8, rigid, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := moldable.NewMemBookingMoldable(tr, m, ao, ao, prof, 8)
	got, err := sim.Run(tr, 8, ms, &sim.Options{CheckMemory: true, Bound: m})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan >= want.Makespan {
		t.Fatalf("moldable %g not faster than rigid %g", got.Makespan, want.Makespan)
	}
	if got.MaxWidth < 2 {
		t.Fatalf("root never widened: %+v", got)
	}
	// Rigid root time 100; with width 8 and alpha .95: 100*(0.05+0.95/8) ≈ 16.9.
	if got.Makespan > 30 {
		t.Fatalf("moldable makespan %g, expected ≈18", got.Makespan)
	}
}

// Tight memory forces narrow tasks: same tree, bound at exactly the peak
// where no workspace fits.
func TestMoldableDegradesUnderMemoryPressure(t *testing.T) {
	b := tree.NewBuilder(3)
	root := b.AddRoot(10, 10, 100)
	b.Add(root, 0, 1, 1)
	b.Add(root, 0, 1, 1)
	tr := b.MustBuild()
	ao, peak := order.MinMemPostOrder(tr)
	prof := moldable.RigidProfile(tr)
	prof.Alpha[root] = 0.95
	prof.MaxWidth[root] = 0
	prof.Workspace[root] = 1e9 // workspace can never fit

	ms, _ := moldable.NewMemBookingMoldable(tr, peak, ao, ao, prof, 8)
	res, err := sim.Run(tr, 8, ms, &sim.Options{CheckMemory: true, Bound: peak})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWidth != 1 || res.WideTasks != 0 {
		t.Fatalf("task widened despite unaffordable workspace: %+v", res)
	}
}

// A bound below any single task's need can never make progress; the
// simulator must report a stalled moldable scheduler as the one typed
// core.ErrDeadlock, like any rigid one.
func TestMoldableDeadlockIsTyped(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{5}, []float64{5}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	ms, err := moldable.NewMemBookingMoldable(tr, 5, ao, ao, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(tr, 2, ms, nil)
	var dead *core.ErrDeadlock
	if !errors.As(err, &dead) {
		t.Fatalf("want core.ErrDeadlock, got %v", err)
	}
	if dead.Finished != 0 || dead.Total != 1 {
		t.Fatalf("deadlock fields wrong: %+v", dead)
	}
}

func TestNewMemBookingMoldableValidation(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	if _, err := moldable.NewMemBookingMoldable(tr, 10, ao, ao, nil, 0); err == nil {
		t.Fatal("procs=0 accepted")
	}
	bad := &moldable.Profile{Alpha: []float64{2}, Workspace: []float64{0}, MaxWidth: []int32{0}}
	if _, err := moldable.NewMemBookingMoldable(tr, 10, ao, ao, bad, 2); err == nil {
		t.Fatal("invalid profile accepted")
	}
}
