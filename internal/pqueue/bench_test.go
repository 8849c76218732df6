package pqueue

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks of the event queue on the simulator's access patterns: a
// steady state of ~p pending events drained in same-time batches (the
// discrete event loop).

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

// BenchmarkEventHeapPopLoop drains a bulk-filled queue the way the
// cluster's event loop does: Min every instant, then one PopBatch.
func BenchmarkEventHeapPopLoop(b *testing.B) {
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
			now := h.Min().Time
			var got float64
			got, buf = h.PopBatch(buf[:0])
			if got != now {
				b.Fatalf("PopBatch at %g, Min said %g", got, now)
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
// pending events, each batch replaced by as many new pushes. p = 8 and
// 32 are the sweep's and the cluster's widths, 64 the widest the sorted
// front holds, and 1024 a queue that lives mostly in the heap beneath.
func BenchmarkEventHeapSteadyState(b *testing.B) {
	for _, p := range []int{8, 32, 64, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			var h EventHeap
			h.Grow(p)
			buf := make([]int32, 0, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				now := 0.0
				for j := 0; j < p; j++ {
					h.Push(rng.Float64(), int32(j))
				}
				for ev := 0; ev < 4096; {
					now, buf = h.PopBatch(buf[:0])
					ev += len(buf)
					for range buf {
						h.Push(now+rng.Float64(), int32(ev))
					}
				}
			}
		})
	}
}
