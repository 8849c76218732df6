package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
)

// The lazy-BBS optimisation must not change any scheduling decision:
// with and without it, the schedule (and hence the makespan and memory
// profile) is identical.
func TestRecomputeBBSIsPureOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for trial := 0; trial < 40; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		ao, peak := order.MinMemPostOrder(tr)
		for _, factor := range []float64{1, 1.5, 3} {
			m := factor * peak
			lazy, _ := core.NewMemBooking(tr, m, ao, ao)
			res1, err := sim.Run(tr, 4, lazy, nil)
			if err != nil {
				t.Fatal(err)
			}
			recomp, _ := core.NewMemBooking(tr, m, ao, ao)
			recomp.SetRecomputeBBS(true)
			res2, err := sim.Run(tr, 4, recomp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res1.Makespan-res2.Makespan) > 1e-9 ||
				math.Abs(res1.PeakBooked-res2.PeakBooked) > 1e-6 {
				t.Fatalf("recompute-BBS changed the schedule: makespan %g vs %g, booked %g vs %g",
					res1.Makespan, res2.Makespan, res1.PeakBooked, res2.PeakBooked)
			}
		}
	}
}

// Eager dispatch must stay memory-safe (used ≤ booked ≤ M) even though
// it loses the ALAP properties; and with ample memory it schedules
// exactly like ALAP (there is nothing to ration).
func TestEagerDispatchSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 40; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		ao, peak := order.MinMemPostOrder(tr)
		m := 1.5 * peak
		s, _ := core.NewMemBooking(tr, m, ao, ao)
		s.SetDispatch(core.DispatchEager)
		_, err := sim.Run(tr, 4, s, &sim.Options{CheckMemory: true, Bound: m})
		if err != nil {
			var dead *core.ErrDeadlock
			if errors.As(err, &dead) {
				continue // eager may deadlock below the guarantee; that is the point
			}
			t.Fatalf("eager dispatch violated memory safety: %v", err)
		}
	}
}

func TestEagerDispatchMatchesALAPWithAmpleMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	for trial := 0; trial < 20; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, _ := order.MinMemPostOrder(tr)
		m := 1e12
		a, _ := core.NewMemBooking(tr, m, ao, ao)
		resA, err := sim.Run(tr, 4, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := core.NewMemBooking(tr, m, ao, ao)
		e.SetDispatch(core.DispatchEager)
		resE, err := sim.Run(tr, 4, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(resA.Makespan-resE.Makespan) > 1e-9 {
			t.Fatalf("ample memory: eager %g != ALAP %g", resE.Makespan, resA.Makespan)
		}
	}
}

// Under the exact guarantee threshold, eager dispatch loses the
// termination guarantee on at least some trees — evidence that the ALAP
// choice is what makes Theorem 1 work.
func TestEagerDispatchCanDeadlockAtPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	deadlocks := 0
	for trial := 0; trial < 300; trial++ {
		tr := randTree(rng, 2+rng.Intn(40))
		ao, peak := order.MinMemPostOrder(tr)
		s, _ := core.NewMemBooking(tr, peak, ao, ao)
		s.SetDispatch(core.DispatchEager)
		if _, err := sim.Run(tr, 4, s, nil); err != nil {
			var dead *core.ErrDeadlock
			if errors.As(err, &dead) {
				deadlocks++
			} else {
				t.Fatal(err)
			}
		}
	}
	if deadlocks == 0 {
		t.Log("eager dispatch never deadlocked at M=peak on this corpus (guarantee may still differ)")
	} else {
		t.Logf("eager dispatch deadlocked on %d/300 trees at M=peak; ALAP never does", deadlocks)
	}
}
