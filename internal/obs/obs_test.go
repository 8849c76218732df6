package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestObserverZeroAllocHotPath pins the emit hook at zero allocations
// per call in both producer modes, on the store path and the
// full-ring drop path alike (the ring is smaller than the run count,
// so both execute), and on a nil observer. The observer is closed
// first so the drain goroutine cannot contribute background
// allocations to the global counter AllocsPerRun samples.
func TestObserverZeroAllocHotPath(t *testing.T) {
	for _, sp := range []bool{true, false} {
		o := New(&Options{Ring: 1 << 10, SingleProducer: sp})
		o.Close()
		if n := testing.AllocsPerRun(4096, func() {
			o.Emit(KindStart, 1, 2, 3, 4, 5)
		}); n > 0 {
			t.Errorf("SingleProducer=%v: Emit allocates %.1f per call, want 0", sp, n)
		}
	}
	var nilObs *Observer
	if n := testing.AllocsPerRun(256, func() {
		nilObs.Emit(KindStart, 1, 2, 3, 4, 5)
	}); n > 0 {
		t.Errorf("nil observer: Emit allocates %.1f per call, want 0", n)
	}
}

func collect(sub *Subscription) []Event {
	var out []Event
	for f := range sub.C {
		out = append(out, f.Events...)
		f.Release()
	}
	return out
}

// TestSingleProducerDeliversInOrder drives the batched SP path end to
// end: every event survives Flush+Close and arrives in emit order.
func TestSingleProducerDeliversInOrder(t *testing.T) {
	o := New(&Options{Ring: 1 << 14, Frame: 64, Poll: time.Millisecond, SingleProducer: true})
	sub := o.Subscribe(1 << 10)
	const n = 10000
	for i := 0; i < n; i++ {
		o.Emit(KindFinish, float64(i), int32(i), -1, float64(i), 0)
	}
	o.Flush()
	o.Close()
	got := collect(sub)
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d (ring drops %d, frame drops %d)",
			len(got), n, o.DroppedEvents(), o.DroppedFrames())
	}
	for i, ev := range got {
		if ev.A != float64(i) {
			t.Fatalf("event %d out of order: A=%g", i, ev.A)
		}
	}
}

// TestMultiProducerDeliversAll hammers the shared-mode path from
// several goroutines under the race detector: no event is lost while
// the ring has room, and each producer's own events stay in its emit
// order.
func TestMultiProducerDeliversAll(t *testing.T) {
	o := New(&Options{Ring: 1 << 16, Frame: 128, Poll: time.Millisecond})
	sub := o.Subscribe(1 << 10)
	const producers, per = 4, 2500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Emit(KindStart, float64(i), int32(p), int32(i), float64(i), 0)
			}
		}(p)
	}
	wg.Wait()
	o.Close()
	got := collect(sub)
	if len(got) != producers*per {
		t.Fatalf("delivered %d events, want %d (ring drops %d, frame drops %d)", len(got), producers*per, o.DroppedEvents(), o.DroppedFrames())
	}
	next := make([]int32, producers)
	for _, ev := range got {
		if ev.Node != next[ev.Job] {
			t.Fatalf("producer %d: event %d arrived before %d", ev.Job, ev.Node, next[ev.Job])
		}
		next[ev.Job]++
	}
}

// TestSlowSubscriberDropsOldest pins the backpressure contract: a
// subscriber that never receives loses frames — counted per
// subscription and on the observer — while a healthy subscriber on the
// same observer still sees every event.
func TestSlowSubscriberDropsOldest(t *testing.T) {
	o := New(&Options{Ring: 1 << 14, Frame: 16, Poll: time.Millisecond})
	stalled := o.Subscribe(1)
	healthy := o.Subscribe(1 << 10)
	const n = 4000
	for i := 0; i < n; i++ {
		o.Emit(KindFinish, float64(i), 0, int32(i), 0, 0)
	}
	o.Close()
	if got := collect(healthy); len(got) != n {
		t.Fatalf("healthy subscriber got %d events, want %d", len(got), n)
	}
	if stalled.Dropped() == 0 {
		t.Fatal("stalled subscriber reports zero DroppedFrames")
	}
	if o.DroppedFrames() < stalled.Dropped() {
		t.Fatalf("observer DroppedFrames %d below subscription's %d", o.DroppedFrames(), stalled.Dropped())
	}
	stalled.Close() // releases the frames still buffered
}

// TestRingOverflowDrops closes the drainer first so the ring can only
// fill, then overfills it: the overflow is counted, not blocked on.
func TestRingOverflowDrops(t *testing.T) {
	for _, sp := range []bool{true, false} {
		o := New(&Options{Ring: 64, SingleProducer: sp})
		o.Close()
		for i := 0; i < 200; i++ {
			o.Emit(KindStart, 0, 0, 0, 0, 0)
		}
		if d := o.DroppedEvents(); d == 0 {
			t.Errorf("SingleProducer=%v: 200 emits into a closed 64-ring dropped %d events, want > 0", sp, d)
		}
	}
}

// TestFrameSharing checks the refcounted fan-out: both subscribers see
// the same frame contents, and releasing from both sides is safe.
func TestFrameSharing(t *testing.T) {
	o := New(&Options{Ring: 1 << 10, Poll: time.Millisecond})
	a := o.Subscribe(64)
	b := o.Subscribe(64)
	o.Emit(KindAdmit, 1, 7, -1, 2, 3)
	o.Close()
	ga, gb := collect(a), collect(b)
	if len(ga) != 1 || len(gb) != 1 || ga[0] != gb[0] {
		t.Fatalf("subscribers disagree: %v vs %v", ga, gb)
	}
	if ga[0].Job != 7 || ga[0].Kind != KindAdmit {
		t.Fatalf("bad event %+v", ga[0])
	}
}

// TestCloseSemantics: closing twice is fine, Subscribe after Close
// yields a closed channel, Emit after Close drops quietly, and
// Subscription.Close is idempotent (before and after Observer.Close).
func TestCloseSemantics(t *testing.T) {
	o := New(nil)
	sub := o.Subscribe(4)
	o.Close()
	o.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel still open after Observer.Close")
	}
	sub.Close()
	late := o.Subscribe(4)
	if _, ok := <-late.C; ok {
		t.Fatal("Subscribe after Close returned an open channel")
	}
	o.Emit(KindStart, 0, 0, 0, 0, 0) // must not panic or block
}

// TestEventLog: with Log on, Events() returns the complete drained
// history after Flush+Close.
func TestEventLog(t *testing.T) {
	o := New(&Options{Ring: 1 << 12, Log: true, SingleProducer: true})
	const n = 500
	for i := 0; i < n; i++ {
		o.Emit(KindFinish, float64(i), int32(i), -1, 0, 0)
	}
	o.Flush()
	o.Close()
	evs := o.Events()
	if len(evs) != n {
		t.Fatalf("log holds %d events, want %d", len(evs), n)
	}
	if evs[n-1].Job != n-1 {
		t.Fatalf("last logged event %+v", evs[n-1])
	}
}

// TestEmitThroughDrainer leaves the drainer running while emitting
// (the production configuration) and checks nothing is lost at a rate
// the poll interval can absorb.
func TestEmitThroughDrainer(t *testing.T) {
	o := New(&Options{Ring: 1 << 12, Poll: time.Millisecond, Log: true})
	const n = 20000
	for i := 0; i < n; i++ {
		o.Emit(KindStart, float64(i), 0, -1, 0, 0)
		if i%1000 == 0 {
			time.Sleep(time.Millisecond) // give the ticker a turn, as a real run's pacing would
		}
	}
	o.Close()
	if got := len(o.Events()); got+int(o.DroppedEvents()) != n {
		t.Fatalf("accounting leak: %d drained + %d dropped != %d emitted", got, o.DroppedEvents(), n)
	}
}

// BenchmarkEmit times one Emit with the drainer running, in each
// producer mode: single (the simulator's batched path), shared from
// one goroutine, and shared from GOMAXPROCS goroutines at once. The
// ring is big enough that no emit is dropped; a drop fails the run,
// since a refused emit is cheaper than a stored one.
func BenchmarkEmit(b *testing.B) {
	run := func(b *testing.B, sp bool, emit func(o *Observer)) {
		o := New(&Options{Ring: 1 << 20, SingleProducer: sp})
		b.ReportAllocs()
		b.ResetTimer()
		emit(o)
		b.StopTimer()
		o.Flush()
		o.Close()
		if d := o.DroppedEvents(); d != 0 {
			b.Fatalf("%d of %d emits dropped", d, b.N)
		}
	}
	serial := func(b *testing.B) func(o *Observer) {
		return func(o *Observer) {
			for i := 0; i < b.N; i++ {
				o.Emit(KindStart, float64(i), 1, 2, 3, 4)
			}
		}
	}
	b.Run("single", func(b *testing.B) { run(b, true, serial(b)) })
	b.Run("shared", func(b *testing.B) { run(b, false, serial(b)) })
	b.Run("shared-parallel", func(b *testing.B) {
		run(b, false, func(o *Observer) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					o.Emit(KindStart, 1, 1, 2, 3, 4)
				}
			})
		})
	})
}
