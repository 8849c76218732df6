package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRankHeapOrdering(t *testing.T) {
	rank := []int32{5, 3, 9, 1, 7, 0}
	h := NewRankHeap(rank)
	for i := int32(0); i < 6; i++ {
		h.Push(i)
	}
	want := []int32{5, 3, 1, 0, 4, 2} // sorted by rank 0,1,3,5,7,9
	for _, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty")
	}
}

func TestRankHeapRandomAgainstSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		rank := make([]int32, n)
		perm := rng.Perm(n)
		for i, p := range perm {
			rank[i] = int32(p)
		}
		h := NewRankHeap(rank)
		order := rng.Perm(n)
		var popped []int32
		// Interleave pushes and pops.
		for _, x := range order {
			h.Push(int32(x))
			if rng.Intn(3) == 0 && h.Len() > 0 {
				popped = append(popped, h.Pop())
			}
		}
		for h.Len() > 0 {
			popped = append(popped, h.Pop())
		}
		if len(popped) != n {
			return false
		}
		// Check: every element popped after an element pushed before it and
		// still present must have had larger rank is complex under
		// interleaving; instead, drain-only check on a second heap.
		h2 := NewRankHeap(rank)
		for i := 0; i < n; i++ {
			h2.Push(int32(i))
		}
		var drained []int32
		for h2.Len() > 0 {
			drained = append(drained, h2.Pop())
		}
		return sort.SliceIsSorted(drained, func(i, j int) bool {
			return rank[drained[i]] < rank[drained[j]]
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRankHeapMin(t *testing.T) {
	rank := []int32{2, 1}
	h := NewRankHeap(rank)
	h.Push(0)
	h.Push(1)
	if h.Min() != 1 {
		t.Fatalf("Min = %d, want 1", h.Min())
	}
	if h.Pop() != 1 || h.Min() != 0 {
		t.Fatal("pop/min sequence wrong")
	}
}

func TestEventHeapTimeOrder(t *testing.T) {
	var h EventHeap
	h.Push(3.0, 1)
	h.Push(1.0, 2)
	h.Push(2.0, 3)
	if e := h.Pop(); e.Time != 1.0 || e.ID != 2 {
		t.Fatalf("first event = %+v", e)
	}
	if e := h.Pop(); e.Time != 2.0 || e.ID != 3 {
		t.Fatalf("second event = %+v", e)
	}
	if e := h.Pop(); e.Time != 3.0 || e.ID != 1 {
		t.Fatalf("third event = %+v", e)
	}
}

func TestEventHeapFIFOTies(t *testing.T) {
	var h EventHeap
	for i := int32(0); i < 10; i++ {
		h.Push(1.0, i)
	}
	for i := int32(0); i < 10; i++ {
		if e := h.Pop(); e.ID != i {
			t.Fatalf("tie order broken: got %d want %d", e.ID, i)
		}
	}
}

// Filter must drop exactly the rejected events and leave the pop order
// of the survivors identical to an untouched heap that never held them.
func TestEventHeapFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var h, want EventHeap
	drop := map[int32]bool{}
	for i := int32(0); i < 300; i++ {
		tm := float64(rng.Intn(40)) // many exact ties
		h.Push(tm, i)
		if i%3 == 0 {
			drop[i] = true
		} else {
			want.Push(tm, i)
		}
	}
	h.Filter(func(id int32) bool { return !drop[id] })
	if h.Len() != want.Len() {
		t.Fatalf("filtered len %d, want %d", h.Len(), want.Len())
	}
	for want.Len() > 0 {
		a, b := h.Pop(), want.Pop()
		if a.Time != b.Time || a.ID != b.ID {
			t.Fatalf("pop order diverged: got (%g,%d) want (%g,%d)", a.Time, a.ID, b.Time, b.ID)
		}
	}
	// Filtering everything empties the heap; filtering an empty heap is a
	// no-op.
	h.Push(1, 1)
	h.Filter(func(int32) bool { return false })
	if h.Len() != 0 {
		t.Fatalf("filter-all left %d events", h.Len())
	}
	h.Filter(func(int32) bool { return true })
}

func TestEventHeapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h EventHeap
	n := 500
	for i := 0; i < n; i++ {
		h.Push(rng.Float64(), int32(i))
	}
	last := -1.0
	for h.Len() > 0 {
		e := h.Pop()
		if e.Time < last {
			t.Fatalf("events out of order: %v after %v", e.Time, last)
		}
		last = e.Time
	}
}

// PopBatch must drain exactly the events sharing the minimum time, in
// the same deterministic order repeated Pops would produce.
func TestEventHeapPopBatchMatchesPopLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		times := make([]float64, n)
		for i := range times {
			// Few distinct times, so equal-time batches are common.
			times[i] = float64(rng.Intn(8))
		}
		var a, b EventHeap
		for i, tm := range times {
			a.Push(tm, int32(i))
			b.Push(tm, int32(i))
		}
		var buf []int32
		for a.Len() > 0 {
			now := a.Min().Time
			var want []int32
			for a.Len() > 0 && a.Min().Time == now {
				want = append(want, a.Pop().ID)
			}
			gotTime, got := b.PopBatch(buf[:0])
			buf = got
			if gotTime != now || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return b.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHeapFilterPopBatchInterleaved drives the heap through random
// interleavings of Push, Grow, Filter and PopBatch — the exact operation
// mix of the fault-injecting job-stream simulator, where a fail-stop
// failure Filters one job's events out mid-timeline — and checks every
// drained batch against a sorted-slice model ordered by (Time, Seq).
func TestEventHeapFilterPopBatchInterleaved(t *testing.T) {
	type ev struct {
		time float64
		id   int32
		seq  int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h EventHeap
		var model []ev
		seq := 0
		nextID := int32(0)
		popBatch := func() bool {
			if h.Len() == 0 {
				return len(model) == 0
			}
			sort.SliceStable(model, func(a, b int) bool {
				if model[a].time != model[b].time {
					return model[a].time < model[b].time
				}
				return model[a].seq < model[b].seq
			})
			tmin := model[0].time
			var want []int32
			for len(model) > 0 && model[0].time == tmin {
				want = append(want, model[0].id)
				model = model[1:]
			}
			gotT, got := h.PopBatch(nil)
			if gotT != tmin || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // push, with frequent exact time ties
				tm := float64(rng.Intn(6))
				seq++
				h.Push(tm, nextID)
				model = append(model, ev{tm, nextID, seq})
				nextID++
			case 4: // grow mid-stream must not disturb order
				h.Grow(h.Len() + rng.Intn(64))
			case 5, 6: // filter a random subset (keep ≈ 2/3)
				dropMod := int32(3 + rng.Intn(4))
				keep := func(id int32) bool { return id%dropMod != 0 }
				h.Filter(keep)
				kept := model[:0]
				for _, e := range model {
					if keep(e.id) {
						kept = append(kept, e)
					}
				}
				model = kept
			default: // drain one batch
				if !popBatch() {
					return false
				}
			}
		}
		for h.Len() > 0 || len(model) > 0 {
			if !popBatch() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEventHeapGrow(t *testing.T) {
	var h EventHeap
	h.Push(2.0, 1)
	h.Grow(100)
	h.Push(1.0, 2)
	if e := h.Pop(); e.ID != 2 {
		t.Fatalf("Grow lost heap order: first pop %d", e.ID)
	}
	if e := h.Pop(); e.ID != 1 {
		t.Fatalf("Grow lost events: second pop %d", e.ID)
	}
}
