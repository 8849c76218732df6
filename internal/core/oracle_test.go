package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// The recomputeBBS knob re-derives BookedBySubtree from a full child
// re-scan on every activation attempt; the default path maintains the
// same quantity incrementally (the cached childSum aggregate). The
// re-scan is therefore the oracle for the incremental accounting: both
// runs must make identical scheduling decisions — the same tasks
// launched in the same order, finishing in the same batches — reach the
// same booked-memory peaks, and satisfy the Lemma invariants after
// every event.

// schedLog records every decision a scheduler makes during a run.
type schedLog struct {
	core.Scheduler
	events []tree.NodeID // OnFinish batches and Select results, interleaved
}

func (l *schedLog) OnFinish(batch []tree.NodeID) {
	l.events = append(l.events, -2) // batch marker
	l.events = append(l.events, batch...)
	l.Scheduler.OnFinish(batch)
}

func (l *schedLog) Select(free int) []tree.NodeID {
	out := l.Scheduler.Select(free)
	l.events = append(l.events, -3) // select marker
	l.events = append(l.events, out...)
	return out
}

// runLogged executes tr under MemBooking with or without the re-scan
// oracle and returns the decision log and the result.
func runLogged(t *testing.T, tr *tree.Tree, m float64, ao, eo *order.Order, p int, recompute bool) ([]tree.NodeID, *sim.Result) {
	t.Helper()
	s, err := core.NewMemBooking(tr, m, ao, eo)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecomputeBBS(recompute)
	s.CheckInvariants = true
	l := &schedLog{Scheduler: s}
	res, err := sim.Run(tr, p, l, nil)
	if err != nil {
		t.Fatalf("recompute=%v: %v", recompute, err)
	}
	if s.InvariantErr != nil {
		t.Fatalf("recompute=%v: invariant violated: %v", recompute, s.InvariantErr)
	}
	return l.events, res
}

func assertOracleMatch(t *testing.T, tr *tree.Tree, factor float64, eoPick, p int) {
	t.Helper()
	ao, peak := order.MinMemPostOrder(tr)
	eo := ao
	switch eoPick % 3 {
	case 1:
		eo = order.CriticalPathOrder(tr)
	case 2:
		eo = order.PerfPostOrder(tr)
	}
	m := factor * peak
	incLog, incRes := runLogged(t, tr, m, ao, eo, p, false)
	oraLog, oraRes := runLogged(t, tr, m, ao, eo, p, true)
	if len(incLog) != len(oraLog) {
		t.Fatalf("schedule length diverged: incremental %d events, oracle %d", len(incLog), len(oraLog))
	}
	for i := range incLog {
		if incLog[i] != oraLog[i] {
			t.Fatalf("schedules diverged at event %d: incremental %d, oracle %d", i, incLog[i], oraLog[i])
		}
	}
	// The decisions being identical, the model results must agree too
	// (peaks up to float association: the incremental aggregate sums in
	// activation order, the re-scan in child-list order).
	if incRes.Makespan != oraRes.Makespan {
		t.Fatalf("makespan diverged: %g vs %g", incRes.Makespan, oraRes.Makespan)
	}
	if math.Abs(incRes.PeakBooked-oraRes.PeakBooked) > 1e-6*(1+m) {
		t.Fatalf("peak booked diverged: %g vs %g", incRes.PeakBooked, oraRes.PeakBooked)
	}
	if math.Abs(incRes.PeakMem-oraRes.PeakMem) > 1e-6*(1+m) {
		t.Fatalf("peak memory diverged: %g vs %g", incRes.PeakMem, oraRes.PeakMem)
	}
}

// Property: on random trees of every shape, the incremental accounting
// is decision-identical to the re-scan oracle across bounds and
// execution orders.
func TestIncrementalBBSMatchesRescanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(120))
		for _, factor := range []float64{1, 1.3, 2, 10} {
			assertOracleMatch(t, tr, factor, trial, 1+rng.Intn(8))
		}
	}
	// The paper's synthetic distribution, then the deepest (chain) and
	// widest (star) shapes.
	for trial := 0; trial < 10; trial++ {
		for k := 0; k < 3; k++ {
			tr := workload.MustSynthetic(workload.NewRNG(uint64(trial*31+k)),
				workload.SyntheticOptions{Nodes: 50 + trial*40})
			assertOracleMatch(t, tr, 1.5, trial, 4)
		}
	}
	star, err := workload.Star(workload.NewRNG(5), 400)
	if err != nil {
		t.Fatal(err)
	}
	assertOracleMatch(t, star, 1.2, 0, 8)
	chain, err := workload.Chain(workload.NewRNG(6), 400)
	if err != nil {
		t.Fatal(err)
	}
	assertOracleMatch(t, chain, 1.2, 0, 8)
}

// FuzzIncrementalBBSOracle lets the fuzzer steer the tree shape, bound
// and processor count towards divergences.
func FuzzIncrementalBBSOracle(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(10), uint8(4), uint8(0))
	f.Add(int64(99), uint16(200), uint8(0), uint8(1), uint8(1))
	f.Add(int64(7), uint16(3), uint8(255), uint8(16), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, fRaw, pRaw, eoPick uint8) {
		n := 1 + int(nRaw)%300
		rng := rand.New(rand.NewSource(seed))
		tr := randTree(rng, n)
		factor := 1 + float64(fRaw)/64 // 1.0 .. ~5.0
		p := 1 + int(pRaw)%16
		assertOracleMatch(t, tr, factor, int(eoPick), p)
	})
}
