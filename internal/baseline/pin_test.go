package baseline_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// pinTree is randTree with a quarter of the tasks zero-duration, so
// completions often meet within one instant, and with sizes that binary
// floating point cannot hold exactly, so a change in the order of a
// booking ledger's sums shows in its bits.
func pinTree(rng *rand.Rand, n int) *tree.Tree {
	p := make([]tree.NodeID, n)
	exec := make([]float64, n)
	out := make([]float64, n)
	tm := make([]float64, n)
	p[0] = tree.None
	for i := 1; i < n; i++ {
		p[i] = tree.NodeID(rng.Intn(i))
	}
	for i := 0; i < n; i++ {
		exec[i] = 0.3 * float64(rng.Intn(5))
		out[i] = 0.1 * float64(1+rng.Intn(9))
		tm[i] = float64(rng.Intn(4))
	}
	return tree.MustNew(p, exec, out, tm)
}

// TestBaselinesPinned pins both baselines' and MemBooking's outcomes
// bit for bit: one FNV-64a digest over every run's makespan, peak
// memory, peak booking and event count, or its deadlock's Finished and
// Booked. Bounds range from half to three times AO's sequential peak, p
// from 1 to 4, and EO is AO or the critical-path order.
func TestBaselinesPinned(t *testing.T) {
	const want = 0x3bd9b38193108b50
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	rng := rand.New(rand.NewSource(239))
	completed, deadlocked := 0, 0
	for trial := 0; trial < 2000; trial++ {
		tr := pinTree(rng, 1+rng.Intn(60))
		ao, _ := order.MinMemPostOrder(tr)
		peak, err := order.PeakMemory(tr, ao.Seq)
		if err != nil {
			t.Fatal(err)
		}
		m := peak * (0.5 + 2.5*rng.Float64())
		p := 1 + rng.Intn(4)
		eo := ao
		if rng.Intn(2) == 1 {
			eo = order.CriticalPathOrder(tr)
		}
		for _, name := range []string{"Activation", "MemBookingRedTree", "MemBooking"} {
			s, run, err := baseline.New(name, tr, m, ao, eo)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(run, p, s, &sim.Options{CheckMemory: true, Bound: m})
			var dead *core.ErrDeadlock
			switch {
			case err == nil:
				completed++
				put(math.Float64bits(res.Makespan))
				put(math.Float64bits(res.PeakMem))
				put(math.Float64bits(res.PeakBooked))
				put(uint64(res.Events))
			case errors.As(err, &dead):
				deadlocked++
				put(uint64(dead.Finished))
				put(math.Float64bits(dead.Booked))
			default:
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x over %d completed and %d deadlocked runs, want %#x", got, completed, deadlocked, uint64(want))
	}
}
