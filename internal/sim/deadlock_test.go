package sim_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/executor"
	"repro/internal/moldable"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Every engine reports a stall as the one *core.ErrDeadlock — there are
// no per-package aliases — so a single errors.As target matches them
// all. The tree is a leaf that completes under a root whose need (10) is
// over the bound (9): each engine finishes the leaf and then stalls.
// MemBooking keeps the leaf's whole booking (2) — ALAP re-dispatches the
// freed execution memory to the root — while the distributed engine's
// plain activation holds only the leaf's output (1).
func TestEveryEngineDeadlocksWithOneType(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0}, []float64{5, 1}, []float64{4, 1}, []float64{1, 1})
	ao, _ := order.MinMemPostOrder(tr)
	const bound = 9
	newMB := func(t *testing.T) *core.MemBooking {
		s, err := core.NewMemBooking(tr, bound, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	engines := []struct {
		name      string
		scheduler string
		booked    float64
		run       func(t *testing.T) error
	}{
		{"sim", "MemBooking", 2, func(t *testing.T) error {
			_, err := sim.Run(tr, 2, newMB(t), &sim.Options{CheckMemory: true, Bound: bound})
			return err
		}},
		{"moldable", "MemBookingMoldable", 2, func(t *testing.T) error {
			ms, err := moldable.NewMemBookingMoldable(tr, bound, ao, ao, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(tr, 2, ms, &sim.Options{CheckMemory: true, Bound: bound})
			return err
		}},
		{"distributed", "distributed", 1, func(t *testing.T) error {
			_, err := distributed.Run(tr, distributed.Uniform(1, 2, bound, 0), []int32{0, 0}, ao, ao)
			return err
		}},
		{"executor", "MemBooking", 2, func(t *testing.T) error {
			_, err := executor.Run(tr, newMB(t), 2, func(tree.NodeID) error { return nil })
			return err
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			err := e.run(t)
			var dead *core.ErrDeadlock
			if !errors.As(err, &dead) {
				t.Fatalf("got %v (%T), want *core.ErrDeadlock", err, err)
			}
			if dead.Scheduler != e.scheduler {
				t.Errorf("Scheduler = %q, want %q", dead.Scheduler, e.scheduler)
			}
			if dead.Finished != 1 || dead.Total != 2 {
				t.Errorf("Finished/Total = %d/%d, want 1/2", dead.Finished, dead.Total)
			}
			if dead.Booked != e.booked {
				t.Errorf("Booked = %g, want %g", dead.Booked, e.booked)
			}
			if dead.Error() == "" {
				t.Error("empty error text")
			}
		})
	}
}
