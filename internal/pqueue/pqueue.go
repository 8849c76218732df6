// Package pqueue provides small typed binary heaps used by the schedulers
// and the event-driven simulator. The schedulers need heaps of node IDs
// keyed by a precomputed rank (a position in an activation or execution
// order); the simulator needs a heap of timed events. Implementing them
// directly (rather than through container/heap's interface indirection)
// keeps the per-event scheduling cost low, which §5.1 of the paper insists
// on.
package pqueue

// RankHeap is a min-heap of int32 items ordered by a caller-supplied rank
// array: the item with the smallest rank[item] is at the top. It is the
// structure behind the ACTf heap of Algorithm 5. The rank of an item is
// read once, at Push, and stored next to it in the heap entry: on
// million-entry heaps the sift comparisons then read contiguous heap
// memory instead of making two random lookups into a multi-megabyte rank
// array per comparison, which profiles showed dominating the per-event
// scheduling cost of high-fanout trees.
type RankHeap struct {
	items []ranked
	rank  []int32
}

// ranked is one heap entry: the item and its rank at Push time.
type ranked struct {
	key int32
	id  int32
}

// NewRankHeap returns a heap ordered by rank. The rank slice is captured by
// reference; it must not change for items currently in the heap.
func NewRankHeap(rank []int32) *RankHeap {
	return &RankHeap{rank: rank}
}

// Len returns the number of queued items.
func (h *RankHeap) Len() int { return len(h.items) }

// Reset empties the heap and rebinds it to rank, keeping the item
// storage for reuse.
func (h *RankHeap) Reset(rank []int32) {
	h.items = h.items[:0]
	h.rank = rank
}

// Push inserts an item in O(log n).
func (h *RankHeap) Push(x int32) {
	h.items = append(h.items, ranked{key: h.rank[x], id: x})
	h.up(len(h.items) - 1)
}

// Min returns the smallest-rank item without removing it. It panics on an
// empty heap.
func (h *RankHeap) Min() int32 { return h.items[0].id }

// Pop removes and returns the smallest-rank item in O(log n).
func (h *RankHeap) Pop() int32 {
	top := h.items[0].id
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *RankHeap) less(i, j int) bool { return h.items[i].key < h.items[j].key }

func (h *RankHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *RankHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// Event is a timed entry in the simulator's event queue.
type Event struct {
	Time float64
	ID   int32
	Seq  int64 // tie-breaker: insertion sequence, for determinism
}

// EventHeap is a min-heap of Events ordered by (Time, Seq).
type EventHeap struct {
	ev  []Event
	seq int64
}

// Len returns the number of pending events.
func (h *EventHeap) Len() int { return len(h.ev) }

// Reset empties the heap, keeping the event storage for reuse.
func (h *EventHeap) Reset() {
	h.ev = h.ev[:0]
	h.seq = 0
}

// Push inserts an event at the given time.
func (h *EventHeap) Push(time float64, id int32) {
	h.seq++
	h.ev = append(h.ev, Event{time, id, h.seq})
	h.up(len(h.ev) - 1)
}

// Grow ensures capacity for at least n queued events, so a simulation
// that knows its maximum concurrency can avoid every later re-allocation.
func (h *EventHeap) Grow(n int) {
	if cap(h.ev) < n {
		ev := make([]Event, len(h.ev), n)
		copy(ev, h.ev)
		h.ev = ev
	}
}

// Min returns the earliest event without removing it.
func (h *EventHeap) Min() Event { return h.ev[0] }

// Pop removes and returns the earliest event.
func (h *EventHeap) Pop() Event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// PopBatch removes the earliest event together with every event sharing
// its exact time, appending the IDs to dst (in deterministic Seq order,
// exactly as repeated Pop calls would yield them) and returning the
// batch time. The peek-ahead after each sift-down replaces the
// Pop-then-re-check-Min churn of driving the batch loop from outside the
// heap: one call per completion batch, no Event copies out, and the
// equal-time test short-circuits on the root slot. It panics on an
// empty heap.
func (h *EventHeap) PopBatch(dst []int32) (float64, []int32) {
	t := h.ev[0].Time
	for {
		dst = append(dst, h.ev[0].ID)
		last := len(h.ev) - 1
		h.ev[0] = h.ev[last]
		h.ev = h.ev[:last]
		if last > 0 {
			h.down(0)
		}
		if len(h.ev) == 0 || h.ev[0].Time != t {
			return t, dst
		}
	}
}

// Filter removes every pending event whose keep(id) reports false and
// re-heapifies, in O(n). Sequence numbers of survivors are untouched,
// so the (Time, Seq) pop order of the kept events is exactly what it
// would have been — the property the fault-injecting simulator relies
// on when a fail-stop failure cancels the completion events of one
// job's in-flight tasks without disturbing the rest of the timeline.
func (h *EventHeap) Filter(keep func(id int32) bool) {
	kept := h.ev[:0]
	for _, e := range h.ev {
		if keep(e.ID) {
			kept = append(kept, e)
		}
	}
	h.ev = kept
	for i := len(h.ev)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *EventHeap) less(i, j int) bool {
	if h.ev[i].Time != h.ev[j].Time {
		return h.ev[i].Time < h.ev[j].Time
	}
	return h.ev[i].Seq < h.ev[j].Seq
}

func (h *EventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *EventHeap) down(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
}
