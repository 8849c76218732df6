package distributed_test

import (
	"errors"
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

func TestSingleDomainMatchesActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		ao, _ := order.MinMemPostOrder(tr)
		peak, err := order.PeakMemory(tr, ao.Seq)
		if err != nil {
			t.Fatal(err)
		}
		m := 2 * peak
		act, _ := baseline.NewActivation(tr, m, ao, ao)
		want, err := sim.Run(tr, 4, act, nil)
		if err != nil {
			t.Fatal(err)
		}
		plat := distributed.Uniform(1, 4, m, 0)
		got, err := distributed.Run(tr, plat, distributed.ProportionalMapping(tr, 1), ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Makespan-want.Makespan) > 1e-9 {
			t.Fatalf("single-domain makespan %g != Activation %g (n=%d)",
				got.Makespan, want.Makespan, tr.Len())
		}
		if got.Transfers != 0 {
			t.Fatalf("single domain produced %d transfers", got.Transfers)
		}
	}
}

func TestDistributedCompletesWithAmpleMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 30; trial++ {
		tr := randTree(rng, 1+rng.Intn(120))
		ao, _ := order.MinMemPostOrder(tr)
		for _, nd := range []int{2, 4} {
			for _, bw := range []float64{0, 5} {
				plat := distributed.Uniform(nd, 2, 1e9, bw)
				mapping := distributed.ProportionalMapping(tr, nd)
				res, err := distributed.Run(tr, plat, mapping, ao, ao)
				if err != nil {
					t.Fatalf("nd=%d bw=%g n=%d: %v", nd, bw, tr.Len(), err)
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
}

func TestDistributedBandwidthSlowsCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	tr := randTree(rng, 200)
	ao, _ := order.MinMemPostOrder(tr)
	mapping := distributed.ProportionalMapping(tr, 4)
	fast, err := distributed.Run(tr, distributed.Uniform(4, 2, 1e9, 0), mapping, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := distributed.Run(tr, distributed.Uniform(4, 2, 1e9, 0.5), mapping, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan < fast.Makespan {
		t.Fatalf("finite bandwidth faster (%g) than infinite (%g)", slow.Makespan, fast.Makespan)
	}
	if fast.Transfers > 0 && slow.Makespan == fast.Makespan {
		t.Log("bandwidth had no effect (transfers off the critical path)")
	}
}

func TestDistributedDeadlockDetected(t *testing.T) {
	// A single task that cannot fit in its domain memory.
	tr := tree.MustNew([]tree.NodeID{tree.None}, []float64{10}, []float64{10}, nil)
	ao, _ := order.MinMemPostOrder(tr)
	plat := distributed.Uniform(1, 1, 5, 0)
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
	plat := distributed.Uniform(2, 1, 10, 0)
	if _, err := distributed.Run(tr, plat, []int32{5}, ao, ao); err == nil {
		t.Error("out-of-range mapping accepted")
	}
	if _, err := distributed.Run(tr, plat, []int32{0, 0}, ao, ao); err == nil {
		t.Error("wrong-length mapping accepted")
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
		plat := distributed.Uniform(nd, 1+rng.Intn(3), mem, float64(rng.Intn(3)))
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
