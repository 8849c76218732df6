package distributed_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distributed"
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

func TestProportionalMappingCoversAndBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 50+rng.Intn(400))
		for _, nd := range []int{1, 2, 4, 7} {
			m := distributed.ProportionalMapping(tr, nd)
			if len(m) != tr.Len() {
				t.Fatalf("mapping covers %d of %d", len(m), tr.Len())
			}
			st := distributed.StatsOf(tr, m, nd)
			nonEmpty := 0
			for _, w := range st.Work {
				if w > 0 {
					nonEmpty++
				}
			}
			if nd <= 4 && tr.Len() > 100 && nonEmpty < nd {
				t.Fatalf("only %d of %d domains used (n=%d)", nonEmpty, nd, tr.Len())
			}
		}
	}
}

func TestProportionalMappingSubtreeCoherent(t *testing.T) {
	// Once a subtree is assigned a single domain, every descendant stays
	// there: domains change only along the "split paths" from the root.
	rng := rand.New(rand.NewSource(199))
	tr := randTree(rng, 300)
	m := distributed.ProportionalMapping(tr, 4)
	// Count distinct domains below each node; where a node's subtree
	// spans one domain, all descendants must match.
	span := make([]map[int32]bool, tr.Len())
	td := tr.TopDown()
	for i := len(td) - 1; i >= 0; i-- {
		v := td[i]
		span[v] = map[int32]bool{m[v]: true}
		for _, c := range tr.Children(v) {
			for d := range span[c] {
				span[v][d] = true
			}
		}
	}
	for i := 0; i < tr.Len(); i++ {
		if len(span[i]) == 1 {
			for _, c := range tr.Children(tree.NodeID(i)) {
				if m[c] != m[i] {
					t.Fatalf("subtree %d spans one domain but child %d differs", i, c)
				}
			}
		}
	}
}

// FuzzSingleDomainMatchesActivation checks that one domain is the
// Activation baseline bit for bit: the same makespan when both complete,
// the same Finished and Booked when both deadlock. Bounds range from half
// to three times AO's sequential peak, p from 1 to 4, and EO is AO or the
// critical-path order, as in baseline.TestBaselinesPinned.
func FuzzSingleDomainMatchesActivation(f *testing.F) {
	rng := rand.New(rand.NewSource(211))
	for k := 0; k < 200; k++ {
		f.Add(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(4)), rng.Intn(2) == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, fRaw, pRaw uint8, cp bool) {
		tr := pinTree(rand.New(rand.NewSource(seed)), 1+int(nRaw)%60)
		ao, _ := order.MinMemPostOrder(tr)
		peak, err := order.PeakMemory(tr, ao.Seq)
		if err != nil {
			t.Fatal(err)
		}
		m := peak * (0.5 + 2.5*float64(fRaw)/255)
		p := 1 + int(pRaw)%4
		eo := ao
		if cp {
			eo = order.CriticalPathOrder(tr)
		}
		act, err := baseline.NewActivation(tr, m, ao, eo)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := sim.Run(tr, p, act, nil)
		got, gotErr := distributed.Run(tr, distributed.Uniform(1, p, m), make([]int32, tr.Len()), ao, eo)
		var wantDead, gotDead *core.ErrDeadlock
		switch {
		case wantErr == nil && gotErr == nil:
			if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
				t.Fatalf("single-domain makespan %v != Activation %v (n=%d)", got.Makespan, want.Makespan, tr.Len())
			}
			if got.Transfers != 0 {
				t.Fatalf("single domain produced %d transfers", got.Transfers)
			}
		case errors.As(wantErr, &wantDead) && errors.As(gotErr, &gotDead):
			if gotDead.Finished != wantDead.Finished || math.Float64bits(gotDead.Booked) != math.Float64bits(wantDead.Booked) {
				t.Fatalf("single-domain deadlock %v != Activation's %v", gotDead, wantDead)
			}
		default:
			t.Fatalf("single domain: %v; Activation: %v", gotErr, wantErr)
		}
	})
}

func TestDistributedCompletesWithAmpleMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(120))
		ao, _ := order.MinMemPostOrder(tr)
		for _, nd := range []int{2, 4} {
			plat := distributed.Uniform(nd, 2, 1e9)
			mapping := distributed.ProportionalMapping(tr, nd)
			res, err := distributed.Run(tr, plat, mapping, ao, ao)
			if err != nil {
				t.Fatalf("nd=%d n=%d: %v", nd, tr.Len(), err)
			}
			if res.Makespan < tr.CriticalPath()-1e-9 {
				t.Fatalf("makespan %g below critical path", res.Makespan)
			}
			st := distributed.StatsOf(tr, mapping, nd)
			if res.Transfers != st.CrossEdges {
				t.Fatalf("transfers %d != cross edges %d", res.Transfers, st.CrossEdges)
			}
			if math.Abs(res.TransferVolume-st.CrossVolume) > 1e-9 {
				t.Fatalf("volume %g != cross volume %g", res.TransferVolume, st.CrossVolume)
			}
		}
	}
}

func TestDistributedDeadlockDetected(t *testing.T) {
	// A single task that cannot fit in its domain memory.
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{10}, []float64{10}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	plat := distributed.Uniform(1, 1, 5)
	_, err := distributed.Run(tr, plat, []int32{0}, ao, ao)
	var dead *core.ErrDeadlock
	if !errors.As(err, &dead) {
		t.Fatalf("want *core.ErrDeadlock, got %v", err)
	}
	if dead.Scheduler != "distributed" || dead.Total != 1 {
		t.Fatalf("deadlock fields wrong: %+v", dead)
	}
}

func TestDistributedValidation(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None}, nil, []float64{1}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	if _, err := distributed.Run(tr, &distributed.Platform{}, []int32{0}, ao, ao); err == nil {
		t.Error("empty platform accepted")
	}
	plat := distributed.Uniform(2, 1, 10)
	if _, err := distributed.Run(tr, plat, []int32{5}, ao, ao); err == nil {
		t.Error("out-of-range mapping accepted")
	}
	if _, err := distributed.Run(tr, plat, []int32{0, 0}, ao, ao); err == nil {
		t.Error("wrong-length mapping accepted")
	}
	if _, err := distributed.Run(tr, distributed.Uniform(1, 1, math.NaN()), []int32{0}, ao, ao); err == nil {
		t.Error("NaN memory accepted")
	}
	cp := order.CriticalPathOrder(tr)
	if _, err := distributed.Run(tr, plat, []int32{0}, cp, cp); err == nil {
		t.Error("non-topological AO accepted")
	}
}

// Memory pressure in one domain must not corrupt accounting elsewhere:
// run many random configs under the engine's internal audit.
func TestDistributedMemoryAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	completed, deadlocked := 0, 0
	for trial := 0; trial < 60; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		ao, _ := order.MinMemPostOrder(tr)
		peak, _ := order.PeakMemory(tr, ao.Seq)
		nd := 1 + rng.Intn(4)
		mem := peak * (0.5 + 2*rng.Float64())
		plat := distributed.Uniform(nd, 1+rng.Intn(3), mem)
		_, err := distributed.Run(tr, plat, distributed.ProportionalMapping(tr, nd), ao, ao)
		var dead *core.ErrDeadlock
		switch {
		case err == nil:
			completed++
		case errors.As(err, &dead):
			deadlocked++
		default:
			t.Fatalf("audit failure: %v", err)
		}
	}
	if completed == 0 {
		t.Fatal("no configuration ever completed")
	}
	t.Logf("distributed audit: %d completed, %d deadlocked", completed, deadlocked)
}

// pinTree is randTree with a quarter of the tasks zero-duration, so
// transfers and completions often meet within one instant, and with sizes that binary floating point cannot hold exactly, so a
// change in the order of the memory ledger's sums shows in its bits.
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

// TestRunPinned pins Run's outcomes bit for bit: one FNV-64a digest over
// every run's makespan, transfer count and volume, or its deadlock's
// Finished and Booked. Half the runs use the proportional mapping, half
// a random one, which crosses far more edges. The constant was taken
// from the engine's own event loop, before it became a scheduler on
// sim.Run.
func TestRunPinned(t *testing.T) {
	const want = 0x683252110b2fa8f6
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	rng := rand.New(rand.NewSource(233))
	completed, deadlocked := 0, 0
	for trial := 0; trial < 2000; trial++ {
		tr := pinTree(rng, 1+rng.Intn(60))
		ao, _ := order.MinMemPostOrder(tr)
		peak, _ := order.PeakMemory(tr, ao.Seq)
		nd := 1 + rng.Intn(4)
		plat := distributed.Uniform(nd, 1+rng.Intn(3), peak*(0.5+2*rng.Float64()))
		mapping := distributed.ProportionalMapping(tr, nd)
		if trial%2 == 1 {
			for i := range mapping {
				mapping[i] = int32(rng.Intn(nd))
			}
		}
		res, err := distributed.Run(tr, plat, mapping, ao, ao)
		var dead *core.ErrDeadlock
		switch {
		case err == nil:
			completed++
			put(math.Float64bits(res.Makespan))
			put(uint64(res.Transfers))
			put(math.Float64bits(res.TransferVolume))
		case errors.As(err, &dead):
			deadlocked++
			put(uint64(dead.Finished))
			put(math.Float64bits(dead.Booked))
		default:
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x over %d completed and %d deadlocked runs, want %#x", got, completed, deadlocked, uint64(want))
	}
}
