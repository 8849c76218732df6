package pqueue

import (
	"math/rand"
	"testing"
)

// Benchmarks of the heaps on the simulator's access patterns: a steady
// state of ~p pending events drained in same-time batches (the discrete
// event loop), and bulk push/pop (the schedulers' CAND/ACTf heaps).

// eventTimes builds n event times drawn from k distinct values, so
// same-time batches of average size n/k occur — the workload PopBatch
// coalesces.
func eventTimes(n, k int) []float64 {
	rng := rand.New(rand.NewSource(42))
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(rng.Intn(k))
	}
	return times
}

func BenchmarkEventHeapPopLoop(b *testing.B) {
	times := eventTimes(4096, 512)
	var h EventHeap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j, tm := range times {
			h.Push(tm, int32(j))
		}
		for h.Len() > 0 {
			now := h.Min().Time
			for h.Len() > 0 && h.Min().Time == now {
				h.pop()
			}
		}
	}
}

func BenchmarkEventHeapPopBatch(b *testing.B) {
	times := eventTimes(4096, 512)
	var h EventHeap
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j, tm := range times {
			h.Push(tm, int32(j))
		}
		for h.Len() > 0 {
			_, buf = h.PopBatch(buf[:0])
		}
	}
}

// BenchmarkEventHeapSteadyState mimics the simulator: a window of p
// pending events, each batch replaced by as many new pushes.
func BenchmarkEventHeapSteadyState(b *testing.B) {
	const p = 8
	rng := rand.New(rand.NewSource(7))
	var h EventHeap
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		now := 0.0
		for j := 0; j < p; j++ {
			h.Push(rng.Float64(), int32(j))
		}
		for ev := 0; ev < 4096; {
			var ids []int32
			now, ids = h.PopBatch(buf[:0])
			buf = ids
			ev += len(ids)
			for range ids {
				h.Push(now+rng.Float64(), int32(ev))
			}
		}
	}
}

func BenchmarkRankHeapPushPop(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(11))
	rank := make([]int32, n)
	for i, v := range rng.Perm(n) {
		rank[i] = int32(v)
	}
	h := NewRankHeap(rank)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset(rank)
		for j := int32(0); j < n; j++ {
			h.Push(j)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
