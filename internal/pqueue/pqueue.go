// Package pqueue provides the two small typed queues of the schedulers
// and the event-driven simulator. The schedulers keep their ready tasks
// by a precomputed rank (a position in an execution order): RankSet, a
// bitset over the ranks. The simulator needs a queue of timed events:
// EventHeap, a sorted array of the earliest events over a binary heap of
// the rest, so that the minimum and each same-time batch are read off
// the array's tail. Implementing them directly (rather than through
// container/heap's interface indirection) keeps the per-event scheduling
// cost low, which §5.1 of the paper insists on.
package pqueue

import (
	"math/bits"
	"slices"
)

// RankSet is a set of distinct ranks 0 … n−1 that gives up its smallest
// first: the ready set ACTf of Algorithm 5, keyed by EO rank. It keeps
// one bit per rank and one summary bit per 64-rank word, so Push sets
// two bits and PopMin takes two TrailingZeros64 after a summary scan
// from the lowest-word hint. The zero RankSet holds no rank: Reset
// sizes it before the first Push.
type RankSet struct {
	words []uint64 // bit r%64 of words[r/64] is set iff rank r is in the set
	sum   []uint64 // bit w%64 of sum[w/64] is set iff words[w] is not zero
	lo    int      // every word below words[lo] is zero
	n     int
}

// Len returns the number of ranks in the set.
func (s *RankSet) Len() int { return s.n }

// Reset empties the set and sizes it for ranks 0 … n−1, keeping its
// storage for reuse.
func (s *RankSet) Reset(n int) {
	nw := (n + 63) >> 6
	ns := (nw + 63) >> 6
	s.words = slices.Grow(s.words[:0], nw)[:nw]
	s.sum = slices.Grow(s.sum[:0], ns)[:ns]
	clear(s.words)
	clear(s.sum)
	s.lo, s.n = nw, 0
}

// Push adds rank r, which must not be in the set, in O(1).
func (s *RankSet) Push(r int32) {
	w := int(r >> 6)
	s.words[w] |= 1 << (r & 63)
	s.sum[w>>6] |= 1 << (w & 63)
	s.lo = min(s.lo, w)
	s.n++
}

// PopMin removes and returns the smallest rank. It panics on an empty
// set.
func (s *RankSet) PopMin() int32 {
	w := s.lo
	if s.words[w] == 0 {
		// The summary bits below lo are clear, as their words are.
		i := w >> 6
		for s.sum[i] == 0 {
			i++
		}
		w = i<<6 | bits.TrailingZeros64(s.sum[i])
		s.lo = w
	}
	x := s.words[w]
	s.words[w] = x & (x - 1)
	if x&(x-1) == 0 {
		s.sum[w>>6] &^= 1 << (w & 63)
	}
	s.n--
	return int32(w<<6 | bits.TrailingZeros64(x))
}

// Event is a timed entry in the simulator's event queue.
type Event struct {
	Time float64
	ID   int32
	Seq  int64 // tie-breaker: insertion sequence, for determinism
}

// frontCap is how many of the earliest events EventHeap keeps sorted.
// It covers every width the engines run at in the sweep (p ≤ 32) and
// the cluster's 32 slots, so there every event lives in the sorted
// front; DESIGN §5 has the p-sweep it was chosen from.
const frontCap = 64

// EventHeap is a queue of Events ordered by (Time, Seq). The frontCap
// earliest events sit in a sorted array, latest first, so Min is the
// last entry and PopBatch truncates the tail. A push is one step of
// insertion sort from the tail into an array that is already sorted,
// so it moves only the front entries earlier than the new event. An
// event later than every front entry goes to a binary min-heap beneath
// the front when the front is full, or already has events beneath it;
// the front refills from the heap when it runs dry. Every heap event is
// later than every front event, so the queue stays O(log n) however
// many events are pending.
type EventHeap struct {
	// front[:n] holds the earliest events, latest first. It is allocated
	// apart from the queue so that a queue on a caller's stack frame
	// stays small.
	front *[frontCap]Event
	n     int
	heap  []Event // min-heap of the events later than front[0]
	seq   int64
}

// Len returns the number of pending events.
func (h *EventHeap) Len() int { return h.n + len(h.heap) }

// Reset empties the queue, keeping the event storage for reuse.
func (h *EventHeap) Reset() {
	h.n = 0
	h.heap = h.heap[:0]
	h.seq = 0
}

// Push inserts an event at the given time. It has the largest Seq so
// far, so among equal times it is the latest.
func (h *EventHeap) Push(time float64, id int32) {
	if h.front == nil {
		h.front = new([frontCap]Event)
	}
	h.seq++
	e := Event{time, id, h.seq}
	f, n := h.front, h.n
	if (n == frontCap || len(h.heap) > 0) && time >= f[0].Time {
		h.heapPush(e)
		return
	}
	if n == frontCap {
		// The latest front entry moves to the heap to make room; it is
		// still earlier than every event already there.
		h.heapPush(f[0])
		n--
		copy(f[:n], f[1:])
	}
	// Insertion from the tail: every entry earlier than e moves down one.
	i := n
	for i > 0 && f[i-1].Time <= time {
		f[i] = f[i-1]
		i--
	}
	f[i] = e
	h.n = n + 1
}

// Grow ensures capacity for at least n queued events, so a simulation
// that knows its maximum concurrency can avoid every later re-allocation.
func (h *EventHeap) Grow(n int) {
	if h.front == nil {
		h.front = new([frontCap]Event)
	}
	if n -= frontCap; cap(h.heap) < n {
		h.heap = append(make([]Event, 0, n), h.heap...)
	}
}

// Min returns the earliest event without removing it.
func (h *EventHeap) Min() Event { return h.front[h.n-1] }

// PopBatch removes the earliest event together with every event sharing
// its exact time, appending the IDs to dst in deterministic Seq order
// and returning the batch time: one call per completion batch, popping
// from the front's tail and refilling the front when a batch empties
// it. It panics on an empty queue.
func (h *EventHeap) PopBatch(dst []int32) (float64, []int32) {
	f, n := h.front, h.n-1
	t := f[n].Time
	dst = append(dst, f[n].ID)
	for {
		for n > 0 && f[n-1].Time == t {
			n--
			dst = append(dst, f[n].ID)
		}
		h.n = n
		if n > 0 || len(h.heap) == 0 {
			return t, dst
		}
		h.refill()
		n = h.n
	}
}

// refill moves the earliest events of the heap into the empty front.
func (h *EventHeap) refill() {
	m := min(frontCap, len(h.heap))
	for i := m - 1; i >= 0; i-- {
		h.front[i] = h.heap[0]
		last := len(h.heap) - 1
		h.heap[0] = h.heap[last]
		h.heap = h.heap[:last]
		h.down(0)
	}
	h.n = m
}

// Filter removes every pending event whose keep(id) reports false, in
// O(n). Sequence numbers of survivors are untouched, so the (Time, Seq)
// pop order of the kept events is exactly what it would have been — the
// property the fault-injecting simulator relies on when a fail-stop
// failure cancels the completion events of one job's in-flight tasks
// without disturbing the rest of the timeline.
func (h *EventHeap) Filter(keep func(id int32) bool) {
	n := 0
	for i := 0; i < h.n; i++ {
		if e := h.front[i]; keep(e.ID) {
			h.front[n] = e
			n++
		}
	}
	h.n = n
	h.heap = slices.DeleteFunc(h.heap, func(e Event) bool { return !keep(e.ID) })
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	if h.n == 0 {
		h.refill()
	}
}

func (h *EventHeap) heapPush(e Event) {
	h.heap = append(h.heap, e)
	h.up(len(h.heap) - 1)
}

func (h *EventHeap) less(i, j int) bool {
	if h.heap[i].Time != h.heap[j].Time {
		return h.heap[i].Time < h.heap[j].Time
	}
	return h.heap[i].Seq < h.heap[j].Seq
}

func (h *EventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
		i = p
	}
}

func (h *EventHeap) down(i int) {
	n := len(h.heap)
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
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}
