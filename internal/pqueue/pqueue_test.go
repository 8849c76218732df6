package pqueue

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refQueue is the naive reference EventHeap is checked against: a slice
// kept sorted by (Time, Seq), each push inserted where it belongs.
type refQueue struct {
	ev  []Event
	seq int64
}

func (r *refQueue) push(time float64, id int32) {
	r.seq++
	// A new event has the largest Seq, so it goes after every event at
	// its time.
	i := sort.Search(len(r.ev), func(i int) bool { return r.ev[i].Time > time })
	r.ev = slices.Insert(r.ev, i, Event{time, id, r.seq})
}

// popBatch removes the earliest events one at a time while they share
// the first one's time.
func (r *refQueue) popBatch() (float64, []int32) {
	t := r.ev[0].Time
	var ids []int32
	for len(r.ev) > 0 && r.ev[0].Time == t {
		ids = append(ids, r.ev[0].ID)
		r.ev = r.ev[1:]
	}
	return t, ids
}

func (r *refQueue) filter(keep func(id int32) bool) {
	r.ev = slices.DeleteFunc(r.ev, func(e Event) bool { return !keep(e.ID) })
}

func (r *refQueue) reset() {
	r.ev = r.ev[:0]
	r.seq = 0
}

// match reports the first difference between h and r in length or
// minimum, or "" when there is none.
func match(h *EventHeap, r *refQueue) string {
	if h.Len() != len(r.ev) {
		return fmt.Sprintf("Len %d, reference holds %d", h.Len(), len(r.ev))
	}
	if h.Len() > 0 && h.Min() != r.ev[0] {
		return fmt.Sprintf("Min %+v, reference %+v", h.Min(), r.ev[0])
	}
	return ""
}

// popBoth pops one batch from h and from r and reports the first
// difference, or "" when the batches agree.
func popBoth(h *EventHeap, r *refQueue) string {
	wantT, want := r.popBatch()
	gotT, got := h.PopBatch(nil)
	if gotT != wantT || !slices.Equal(got, want) {
		return fmt.Sprintf("PopBatch = %g %v, reference %g %v", gotT, got, wantT, want)
	}
	return match(h, r)
}

// drainBoth pops h and r dry, batch by batch.
func drainBoth(h *EventHeap, r *refQueue) string {
	for h.Len() > 0 && len(r.ev) > 0 {
		if d := popBoth(h, r); d != "" {
			return d
		}
	}
	return match(h, r)
}

type batch struct {
	time float64
	ids  []int32
}

// expectBatches pops len(want) batches from h and checks each, then
// that h is empty.
func expectBatches(t *testing.T, h *EventHeap, want ...batch) {
	t.Helper()
	for _, w := range want {
		gotT, got := h.PopBatch(nil)
		if gotT != w.time || !slices.Equal(got, w.ids) {
			t.Fatalf("PopBatch = %g %v, want %g %v", gotT, got, w.time, w.ids)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("%d events left", h.Len())
	}
}

func TestEventHeapTimeOrder(t *testing.T) {
	var h EventHeap
	h.Push(3.0, 1)
	h.Push(1.0, 2)
	h.Push(2.0, 3)
	if e := h.Min(); e.Time != 1.0 || e.ID != 2 {
		t.Fatalf("Min = %+v", e)
	}
	expectBatches(t, &h, batch{1, []int32{2}}, batch{2, []int32{3}}, batch{3, []int32{1}})
}

// Equal times pop in push order, in the front and across the heap
// beneath it.
func TestEventHeapFIFOTies(t *testing.T) {
	var h EventHeap
	var ids []int32
	for i := int32(0); i < 4*frontCap; i++ {
		h.Push(1.0, i)
		ids = append(ids, i)
	}
	expectBatches(t, &h, batch{1, ids})
}

// Filter must drop exactly the rejected events and leave the pop order
// of the survivors identical to a queue that never held them.
func TestEventHeapFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var h EventHeap
	var want refQueue
	drop := map[int32]bool{}
	for i := int32(0); i < 300; i++ {
		tm := float64(rng.Intn(40)) // many exact ties
		h.Push(tm, i)
		want.push(tm, i)
		drop[i] = i%3 == 0
	}
	keep := func(id int32) bool { return !drop[id] }
	h.Filter(keep)
	want.filter(keep)
	if d := drainBoth(&h, &want); d != "" {
		t.Fatal(d)
	}
	// A filter that drops every event of the sorted front leaves the
	// queue to the events beneath it.
	for i := int32(0); i < 2*frontCap; i++ {
		h.Push(float64(i), i)
		want.push(float64(i), i)
	}
	early := func(id int32) bool { return id >= frontCap }
	h.Filter(early)
	want.filter(early)
	if d := drainBoth(&h, &want); d != "" {
		t.Fatal(d)
	}
	// Filtering everything empties the queue; filtering an empty queue
	// is a no-op.
	h.Push(1, 1)
	h.Filter(func(int32) bool { return false })
	if h.Len() != 0 {
		t.Fatalf("filter-all left %d events", h.Len())
	}
	h.Filter(func(int32) bool { return true })
	if h.Len() != 0 {
		t.Fatalf("filtering an empty queue left %d events", h.Len())
	}
}

func TestEventHeapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h EventHeap
	var r refQueue
	for i := 0; i < 500; i++ {
		tm := rng.Float64()
		h.Push(tm, int32(i))
		r.push(tm, int32(i))
	}
	last := -1.0
	for h.Len() > 0 {
		tm := h.Min().Time
		if tm < last {
			t.Fatalf("events out of order: %v after %v", tm, last)
		}
		last = tm
		if d := popBoth(&h, &r); d != "" {
			t.Fatal(d)
		}
	}
}

// PopBatch must drain exactly the events sharing the minimum time, in
// the order a one-at-a-time drain of the sorted reference produces.
func TestEventHeapPopBatchMatchesPopLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		var h EventHeap
		var r refQueue
		for i := 0; i < n; i++ {
			// Few distinct times, so equal-time batches are common.
			tm := float64(rng.Intn(8))
			h.Push(tm, int32(i))
			r.push(tm, int32(i))
		}
		return drainBoth(&h, &r) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHeapFilterPopBatchInterleaved drives the queue through random
// interleavings of Push, Grow, Filter and PopBatch — the exact operation
// mix of the fault-injecting job-stream simulator, where a fail-stop
// failure Filters one job's events out mid-timeline — and checks every
// drained batch and every Min against the reference.
func TestEventHeapFilterPopBatchInterleaved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h EventHeap
		var r refQueue
		nextID := int32(0)
		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // push, with frequent exact time ties
				tm := float64(rng.Intn(6))
				h.Push(tm, nextID)
				r.push(tm, nextID)
				nextID++
			case 4: // grow mid-stream must not disturb order
				h.Grow(h.Len() + rng.Intn(64))
			case 5, 6: // filter a random subset (keep ≈ 2/3)
				dropMod := int32(3 + rng.Intn(4))
				keep := func(id int32) bool { return id%dropMod != 0 }
				h.Filter(keep)
				r.filter(keep)
			default: // drain one batch
				if h.Len() > 0 && popBoth(&h, &r) != "" {
					return false
				}
			}
			if match(&h, &r) != "" {
				return false
			}
		}
		return drainBoth(&h, &r) == ""
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
	expectBatches(t, &h, batch{1, []int32{2}}, batch{2, []int32{1}})
}

// FuzzEventHeap runs byte-coded sequences of Push, PopBatch, Filter,
// Reset and Grow, with times from a handful of values so ties are the
// rule, on queues of 0 to 4×frontCap events, and checks every batch and
// every Min against the sorted reference. A Filter by time empties the
// sorted front while events wait beneath it.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 8, 16, 4, 4, 4})
	f.Add([]byte{3, 3, 3, 3, 4, 5, 4, 13, 4, 6, 3, 4})
	f.Add(bytes.Repeat([]byte{3, 11, 19, 4}, 16))
	f.Add(append(bytes.Repeat([]byte{3}, 8), bytes.Repeat([]byte{4, 1, 9}, 40)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h EventHeap
		var r refQueue
		var times []float64 // by ID
		push := func(tm float64) {
			if h.Len() < 4*frontCap {
				id := int32(len(times))
				h.Push(tm, id)
				r.push(tm, id)
				times = append(times, tm)
			}
		}
		for k, b := range ops {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 1, 2: // one event at one of eight times
				push(float64(arg % 8))
			case 3: // a burst of up to 32 events over a few times
				for j := 0; j <= arg; j++ {
					push(float64((arg + j*j) % 5))
				}
			case 4:
				if h.Len() > 0 {
					if d := popBoth(&h, &r); d != "" {
						t.Fatalf("op %d: %s", k, d)
					}
				}
			case 5: // drop every few IDs, or every event up to a time
				mod := int32(2 + arg%5)
				keep := func(id int32) bool { return id%mod != 0 }
				if arg&1 == 1 {
					keep = func(id int32) bool { return times[id] > float64(arg%8) }
				}
				h.Filter(keep)
				r.filter(keep)
			case 6:
				h.Reset()
				r.reset()
			case 7:
				h.Grow(arg * 8)
			}
			if d := match(&h, &r); d != "" {
				t.Fatalf("op %d (%#x): %s", k, b, d)
			}
		}
		if d := drainBoth(&h, &r); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzRankSet runs byte-coded sequences of Push, PopMin and Reset, each
// op one code byte and a 16-bit argument, on sets of 1, 64, 4,096 ± 1
// and 1<<16 ranks, and checks every PopMin and Len against a sorted
// slice. A Reset to another size reuses the storage of a set that may
// still hold ranks.
func FuzzRankSet(f *testing.F) {
	sizes := []int{1, 64, 4095, 4096, 4097, 1 << 16}
	f.Add(uint8(0), []byte{0, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add(uint8(4), []byte{0, 16, 1, 0, 0, 63, 0, 15, 255, 2, 0, 0, 0, 0, 64, 2, 0, 0, 3, 0, 1, 0, 0, 9})
	f.Add(uint8(5), []byte{0, 255, 255, 0, 0, 0, 2, 0, 0, 0, 128, 0, 0, 16, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	rng := rand.New(rand.NewSource(3))
	for size := range sizes {
		ops := make([]byte, 3000)
		rng.Read(ops)
		f.Add(uint8(size), ops)
	}
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := sizes[int(size)%len(sizes)]
		var s RankSet
		s.Reset(n)
		var ref []int32 // the ranks in the set, sorted
		for k := 0; k+2 < len(ops); k += 3 {
			arg := int(ops[k+1])<<8 | int(ops[k+2])
			switch ops[k] % 8 {
			case 0, 1, 2, 3: // push a rank not yet in the set
				r := int32(arg % n)
				if i, found := slices.BinarySearch(ref, r); !found {
					s.Push(r)
					ref = slices.Insert(ref, i, r)
				}
			case 4, 5, 6:
				if len(ref) > 0 {
					if got := s.PopMin(); got != ref[0] {
						t.Fatalf("op %d: PopMin = %d, want %d", k/3, got, ref[0])
					}
					ref = ref[1:]
				}
			case 7:
				n = sizes[arg%len(sizes)]
				s.Reset(n)
				ref = ref[:0]
			}
			if s.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", k/3, s.Len(), len(ref))
			}
		}
		for _, want := range ref {
			if got := s.PopMin(); got != want {
				t.Fatalf("drain: PopMin = %d, want %d", got, want)
			}
		}
	})
}
