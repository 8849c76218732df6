package multitree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// TestStreamPinned pins the cluster's decisions bit for bit: one
// FNV-64a digest over the event stream and the Result of every run in a
// space of small seeded streams, every policy × the chaos grid's fault
// models and checkpoint policies × backoff 0 or 50, each stream 3–12
// jobs of 4–60 nodes on 1–4 processors. A change that means to move a
// decision retakes the constant and says why.
func TestStreamPinned(t *testing.T) {
	const want = 0x1f427f243b67f2be
	const perCell = 21
	h := fnv.New64a()
	runs, restarts, checkpoints := 0, 0, 0
	for _, pol := range allPolicies() {
		for _, m := range chaosModels {
			for _, ck := range chaosCheckpoints {
				for _, base := range []float64{0, 50} {
					for k := 0; k < perCell; k++ {
						seed := uint64(runs)
						rng := rand.New(rand.NewSource(int64(seed)))
						sizes := make([]int, 3+rng.Intn(10))
						for i := range sizes {
							sizes[i] = 4 + rng.Intn(57)
						}
						specs := stream(t, seed, len(sizes), sizes, PoissonArrivals(), 20)
						f := chaosFaults(m, ck)
						f.Plan = m.NewPlan(faults.Seed(seed, m, "pin"))
						f.Backoff = faults.Backoff{Base: base, Cap: 800, Jitter: 0.3}
						opt := &Options{Procs: 1 + rng.Intn(4), Mem: (1 + rng.Float64()) * maxPeak(specs), Policy: pol, Faults: f}
						res, evs := observed(t, specs, opt)
						hashEvents(h, evs)
						fmt.Fprintf(h, "%v", *res)
						runs++
						restarts += res.Restarts
						checkpoints += res.Checkpoints
					}
				}
			}
		}
	}
	if restarts == 0 || checkpoints == 0 {
		t.Fatalf("%d runs too tame to pin anything (restarts %d, checkpoints %d)", runs, restarts, checkpoints)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x over %d runs (%d restarts, %d checkpoints), want %#x", got, runs, restarts, checkpoints, uint64(want))
	}
}
