package executor_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/order"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// The live half of the duration-uncertainty suite: the scheduler is
// built from the nominal tree with the bound set to exactly the
// nominal sequential peak, while the task bodies sleep *perturbed*
// durations the scheduler never sees. A MemoryLimiter with the nominal
// bound witnesses that Theorem 1 holds regardless of realised times —
// the memory guarantee depends only on shape and sizes.
func TestJitteredExecutionHoldsMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for _, m := range perturb.DefaultModels() {
		m := m
		tr := randTree(rng, 40+rng.Intn(40)) // draw outside the parallel subtest: rng is not goroutine-safe
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			ao, peak := order.MinMemPostOrder(tr)
			s, err := core.NewMemBooking(tr, peak, ao, ao)
			if err != nil {
				t.Fatal(err)
			}
			factors := m.Factors(tr.Len(), perturb.Seed(9, m, t.Name()))
			lim := executor.NewMemoryLimiter(peak)
			var mu sync.Mutex
			childFreed := make([]bool, tr.Len())
			_, err = executor.Run(tr, s, 4, func(id tree.NodeID) error {
				if err := lim.Alloc(tr.Exec(id) + tr.Out(id)); err != nil {
					return err
				}
				// Sleep the realised duration: nominal unit time scaled by
				// the model's factor (zero for zero-duration degenerates).
				time.Sleep(time.Duration(factors[id] * 50 * float64(time.Microsecond)))
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
				t.Fatalf("%s: %v", m.Name, err)
			}
			if lim.Peak() > peak+1e-9 {
				t.Fatalf("%s: limiter peak %g exceeds nominal bound %g", m.Name, lim.Peak(), peak)
			}
		})
	}
}

// Oracle agreement on a perturbed instance: MemBooking's incremental
// childSum accounting must make decisions identical to the full
// child-rescan oracle (SetRecomputeBBS) even when perturbed durations
// reorder every completion event. Traces are compared span by span;
// the invariant checker re-verifies the Lemma 2–5 invariants and the
// childSum aggregate after every event of the incremental run.
func TestPerturbedOracleAgreement(t *testing.T) {
	nominal := workload.MustSynthetic(workload.NewRNG(31), workload.SyntheticOptions{Nodes: 600})
	ao, peak := order.MinMemPostOrder(nominal)
	model := perturb.Stragglers(0.1, 10)
	perturbed, err := perturb.Realise(nominal, model, perturb.Seed(3, model, "oracle"))
	if err != nil {
		t.Fatal(err)
	}
	runTraced := func(recompute bool) ([]sim.Span, *sim.Result) {
		s, err := core.NewMemBooking(nominal, peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRecomputeBBS(recompute)
		if !recompute {
			s.CheckInvariants = true
		}
		tr := &sim.Trace{}
		res, err := sim.Run(perturbed, 4, s, &sim.Options{CheckMemory: true, Bound: peak, NoSchedTime: true, Trace: tr})
		if err != nil {
			t.Fatalf("recompute=%v: %v", recompute, err)
		}
		if s.InvariantErr != nil {
			t.Fatalf("invariant violated under perturbed durations: %v", s.InvariantErr)
		}
		return tr.Spans, res
	}
	incSpans, incRes := runTraced(false)
	oraSpans, oraRes := runTraced(true)
	if incRes.Makespan != oraRes.Makespan || incRes.PeakMem != oraRes.PeakMem {
		t.Fatalf("incremental result %+v differs from oracle %+v", incRes, oraRes)
	}
	if len(incSpans) != len(oraSpans) {
		t.Fatalf("%d spans vs oracle's %d", len(incSpans), len(oraSpans))
	}
	for i := range incSpans {
		if incSpans[i] != oraSpans[i] {
			t.Fatalf("span %d: incremental %+v, oracle %+v", i, incSpans[i], oraSpans[i])
		}
	}
}
