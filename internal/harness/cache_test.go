package harness

import (
	"sync"
	"testing"

	"repro/internal/order"
	"repro/internal/tree"
	"repro/internal/workload"
)

// prepareOne runs the engine's preparation of one tree.
func prepareOne(eng *Engine, tr *tree.Tree) prepared {
	return eng.prepare([]workload.Instance{{Name: "t", Tree: tr}})[0]
}

func TestEngineEntriesMemoizeAndForget(t *testing.T) {
	c := NewEngine(1, false)
	tr := workload.MustSynthetic(workload.NewRNG(3), workload.SyntheticOptions{Nodes: 200})

	pr1 := prepareOne(c, tr)
	pr2 := prepareOne(c, tr)
	if pr1.ao != pr2.ao || pr1.peak != pr2.peak {
		t.Fatal("Prepare not memoized")
	}
	if st := c.Stats(); st.PrepRequested != 2 || st.PrepComputed != 1 {
		t.Fatalf("stats %+v, want 2 requested / 1 computed", st)
	}
	// memPO is the preparation's; other names memoize too.
	e := c.entry(tr)
	if e != c.entry(tr) || e.Tree() != tr {
		t.Fatal("a tree has more than one entry")
	}
	if o, err := e.Order(order.NameMemPO); err != nil || o != pr1.ao {
		t.Fatalf("memPO not shared with the preparation: %v %v", o, err)
	}
	cp1, err := e.Order(order.NameCP)
	if err != nil {
		t.Fatal(err)
	}
	if cp2, _ := e.Order(order.NameCP); cp2 != cp1 {
		t.Fatal("Order not memoized")
	}
	if _, err := e.Order("bogus"); err == nil {
		t.Fatal("bogus order accepted")
	}
	lb := e.LowerBound(8, 2*pr1.peak)
	if lb <= 0 {
		t.Fatalf("lower bound %g", lb)
	}
	if got := e.LowerBound(8, 2*pr1.peak); got != lb {
		t.Fatal("LowerBound not memoized")
	}

	// The artefacts live in the entry and nowhere else: a holder that
	// drops it (the service evicting a tree) has forgotten them, and a
	// second entry for the same tree starts from nothing.
	e2 := NewEntry(tr)
	if pr := e2.Prepare(); pr.AO == pr1.ao || pr.Peak != pr1.peak {
		t.Fatalf("a new entry shares the old one's preparation (peak %g vs %g)", pr.Peak, pr1.peak)
	}
	if cp, _ := e2.Order(order.NameCP); cp == cp1 {
		t.Fatal("a new entry shares the old one's orders")
	}
	if st := c.Stats(); st.PrepRequested != 2 || st.PrepComputed != 1 {
		t.Fatalf("an entry outside the engine touched its counters: %+v", st)
	}
}

// TestPrepareComputesOnce races goroutines on one uncached tree: the
// preparation runs once, everyone gets the same order, and the counters
// say so. Run under -race in CI.
func TestPrepareComputesOnce(t *testing.T) {
	const n = 8
	c := NewEngine(1, false)
	tr := workload.MustSynthetic(workload.NewRNG(5), workload.SyntheticOptions{Nodes: 5000})
	got := make([]prepared, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = prepareOne(c, tr)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i].ao == nil || got[i].ao != got[0].ao {
			t.Fatalf("goroutine %d got order %p, goroutine 0 got %p", i, got[i].ao, got[0].ao)
		}
	}
	if st := c.Stats(); st.PrepRequested != n || st.PrepComputed != 1 {
		t.Fatalf("stats %+v, want %d requested / 1 computed", st, n)
	}
}
