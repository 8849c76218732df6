package harness

import (
	"sync"
	"testing"

	"repro/internal/order"
	"repro/internal/workload"
)

func TestInstanceCacheMemoizesAndForgets(t *testing.T) {
	c := NewInstanceCache()
	tr := workload.MustSynthetic(workload.NewRNG(3), workload.SyntheticOptions{Nodes: 200})

	pr1 := c.Prepare(tr)
	pr2 := c.Prepare(tr)
	if pr1.AO != pr2.AO || pr1.Peak != pr2.Peak {
		t.Fatal("Prepare not memoized")
	}
	if st := c.Stats(); st.PrepRequested != 2 || st.PrepComputed != 1 {
		t.Fatalf("stats %+v, want 2 requested / 1 computed", st)
	}
	// memPO is the preparation's; other names memoize too.
	e := c.Entry(tr)
	if e != c.Entry(tr) || e.Tree() != tr {
		t.Fatal("a tree has more than one entry")
	}
	if o, err := e.Order(order.NameMemPO); err != nil || o != pr1.AO {
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
	lb := e.LowerBound(8, 2*pr1.Peak)
	if lb <= 0 {
		t.Fatalf("lower bound %g", lb)
	}
	if got := e.LowerBound(8, 2*pr1.Peak); got != lb {
		t.Fatal("LowerBound not memoized")
	}

	// The artefacts live in the entry and nowhere else: a holder that
	// drops it (the service evicting a tree) has forgotten them, and a
	// second entry for the same tree starts from nothing.
	e2 := NewEntry(tr)
	if pr := e2.Prepare(); pr.AO == pr1.AO || pr.Peak != pr1.Peak {
		t.Fatalf("a new entry shares the old one's preparation (peak %g vs %g)", pr.Peak, pr1.Peak)
	}
	if cp, _ := e2.Order(order.NameCP); cp == cp1 {
		t.Fatal("a new entry shares the old one's orders")
	}
	if st := c.Stats(); st.PrepRequested != 2 || st.PrepComputed != 1 {
		t.Fatalf("an entry outside the cache touched its counters: %+v", st)
	}
}

// TestPrepareComputesOnce races goroutines on one uncached tree: the
// preparation runs once, everyone gets the same order, and the counters
// say so. Run under -race in CI.
func TestPrepareComputesOnce(t *testing.T) {
	const n = 8
	c := NewInstanceCache()
	tr := workload.MustSynthetic(workload.NewRNG(5), workload.SyntheticOptions{Nodes: 5000})
	got := make([]Prepared, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = c.Prepare(tr)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i].AO == nil || got[i].AO != got[0].AO {
			t.Fatalf("goroutine %d got order %p, goroutine 0 got %p", i, got[i].AO, got[0].AO)
		}
	}
	if st := c.Stats(); st.PrepRequested != n || st.PrepComputed != 1 {
		t.Fatalf("stats %+v, want %d requested / 1 computed", st, n)
	}
}
