package core

import (
	"math/bits"
	"testing"
)

// The arena oracles: a pooled, rebound scheduler must be
// indistinguishable — decision for decision, invariant for invariant —
// from a freshly constructed one.

func TestRebindMatchesFresh(t *testing.T) {
	trA, aoA, peakA := ckTree(t, 500, 1)
	trB, aoB, peakB := ckTree(t, 300, 2)

	fresh := newCkLoop(t, trB, aoB, 1.4*peakB, 4)
	for fresh.step() {
	}

	// Run the instance over A first so every state array carries stale
	// values, then rebind to B and re-run.
	reused := newCkLoop(t, trA, aoA, 1.4*peakA, 4)
	for reused.step() {
	}
	s := reused.s
	if err := s.Rebind(trB, 1.4*peakB, aoB, aoB); err != nil {
		t.Fatal(err)
	}
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	l := &ckLoop{t: trB, s: s, procs: 4}
	for l.step() {
	}
	if s.InvariantErr != nil {
		t.Fatalf("invariant violated after rebind: %v", s.InvariantErr)
	}
	if !equalSched(l.sched, fresh.sched) {
		t.Fatalf("rebound schedule differs from fresh (%d vs %d tasks)", len(l.sched), len(fresh.sched))
	}
}

func TestRebindGrowsToPowerOfTwo(t *testing.T) {
	trA, aoA, peakA := ckTree(t, 100, 3)
	trB, aoB, peakB := ckTree(t, 700, 4)
	l := newCkLoop(t, trA, aoA, 2*peakA, 4)
	for l.step() {
	}
	s := l.s
	if err := s.Rebind(trB, 2*peakB, aoB, aoB); err != nil {
		t.Fatal(err)
	}
	if c := cap(s.need); c != 1024 {
		t.Fatalf("grown capacity %d, want the next power of two 1024", c)
	}
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	lb := &ckLoop{t: trB, s: s, procs: 4}
	for lb.step() {
	}
	if s.InvariantErr != nil {
		t.Fatalf("invariant violated after growth: %v", s.InvariantErr)
	}
	if !s.Done() {
		t.Fatal("rebound run did not finish")
	}
}

func TestRebindRejectsBadInputs(t *testing.T) {
	trA, aoA, peakA := ckTree(t, 50, 5)
	trB, _, _ := ckTree(t, 60, 6)
	s, err := NewMemBooking(trA, 2*peakA, aoA, aoA)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebind(trB, 100, aoA, aoA); err == nil {
		t.Fatal("Rebind accepted an order that is not topological for the new tree")
	}
	if err := s.Rebind(trA, -1, aoA, aoA); err == nil {
		t.Fatal("Rebind accepted a negative bound")
	}
}

func TestPoolServesSizeClass(t *testing.T) {
	var p MemBookingPool
	tr, ao, peak := ckTree(t, 500, 7)
	l := newCkLoop(t, tr, ao, 2*peak, 4)
	for l.step() {
	}
	p.Put(l.s)
	if l.s.t != nil || l.s.ao != nil || l.s.eo != nil {
		t.Fatal("Put retained tree/order references")
	}

	// 500-node state (bucket floor(log2 500) = 8) serves any tree up to
	// 256 nodes (ceil(log2 n) ≤ 8) — the recycled pointer comes back.
	trS, aoS, peakS := ckTree(t, 256, 8)
	got, err := p.Get(trS, 2*peakS, aoS, aoS)
	if err != nil {
		t.Fatal(err)
	}
	if got != l.s {
		t.Fatal("Get did not recycle the pooled instance for its size class")
	}
	if err := got.Init(); err != nil {
		t.Fatal(err)
	}
	ls := &ckLoop{t: trS, s: got, procs: 4}
	for ls.step() {
	}
	if !got.Done() {
		t.Fatal("recycled scheduler did not finish")
	}

	// The bucket is empty now; a same-class request builds fresh.
	fresh, err := p.Get(trS, 2*peakS, aoS, aoS)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == got {
		t.Fatal("Get returned an instance still checked out")
	}

	// A larger class never receives the small instance.
	p.Put(got)
	trL, aoL, peakL := ckTree(t, 600, 9)
	big, err := p.Get(trL, 2*peakL, aoL, aoL)
	if err != nil {
		t.Fatal(err)
	}
	if big == got {
		t.Fatalf("Get served a %d-node tree from a cap-%d instance", trL.Len(), cap(got.need))
	}
}

// TestPoolRefusesSecondPut pins the half of the pool contract Put can
// see: retiring an instance that is already in the pool panics — both
// entries would otherwise be handed out, and two jobs would share one
// scheduler — while a single Put still recycles.
func TestPoolRefusesSecondPut(t *testing.T) {
	var p MemBookingPool
	tr, ao, peak := ckTree(t, 256, 12) // a power of two: Put's class is Get's
	l := newCkLoop(t, tr, ao, 2*peak, 4)
	p.Put(l.s)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Put of the same instance did not panic")
			}
		}()
		p.Put(l.s)
	}()
	// The refused Put left one entry behind, not two.
	got, err := p.Get(tr, 2*peak, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	if got != l.s {
		t.Error("Get after a single Put did not recycle the instance")
	}
	if again, _ := p.Get(tr, 2*peak, ao, ao); again == l.s {
		t.Error("the pool handed out one instance twice")
	}
	p.Put(got) // checked out again, so retiring it is legal again
}

// TestPoolRestoreMatchesFreshRestore reruns the checkpoint oracle
// through the pool: a checkpoint restored into a recycled, rebound
// instance must continue exactly like the same checkpoint restored
// into a fresh scheduler (under parallelism the uninterrupted run is
// not the reference — fail-stop re-executes in-flight tasks).
func TestPoolRestoreMatchesFreshRestore(t *testing.T) {
	tr, ao, peak := ckTree(t, 400, 10)
	m := 1.3 * peak

	ref := newCkLoop(t, tr, ao, m, 4)
	var cp *Checkpoint
	steps := 0
	for ref.step() {
		steps++
		if steps == 20 {
			cp = ref.s.Checkpoint()
			break
		}
	}
	if cp == nil {
		t.Fatalf("run too short for a mid-run checkpoint (%d steps)", steps)
	}

	fresh, err := NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	fresh.CheckInvariants = true
	if err := fresh.Restore(cp); err != nil {
		t.Fatal(err)
	}
	lf := &ckLoop{t: tr, s: fresh, procs: 4}
	for lf.step() {
	}
	if fresh.InvariantErr != nil {
		t.Fatal(fresh.InvariantErr)
	}
	if !fresh.Done() {
		t.Fatal("fresh restore did not finish the tree")
	}

	// Dirty the pool with an unrelated job of the same size class first
	// (cap 600 lands in bucket floor(log2 600) = 9, which serves the
	// 400-node request, ceil(log2 400) = 9).
	var p MemBookingPool
	trX, aoX, peakX := ckTree(t, 600, 11)
	lx := newCkLoop(t, trX, aoX, 2*peakX, 4)
	for lx.step() {
	}
	p.Put(lx.s)

	s, err := p.Get(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	if s != lx.s {
		t.Fatal("expected the recycled instance")
	}
	s.CheckInvariants = true
	if err := s.Restore(cp); err != nil {
		t.Fatal(err)
	}
	l := &ckLoop{t: tr, s: s, procs: 4}
	for l.step() {
	}
	if s.InvariantErr != nil {
		t.Fatalf("invariant violated after pooled restore: %v", s.InvariantErr)
	}
	if !s.Done() {
		t.Fatal("pooled restore did not finish the tree")
	}
	if !equalSched(l.sched, lf.sched) {
		t.Fatalf("pooled restore diverged from the fresh restore (%d vs %d tasks)", len(l.sched), len(lf.sched))
	}
}

func TestPoolBucketMath(t *testing.T) {
	// Get's ceil(log2 n) must never exceed Put's floor(log2 cap) for a
	// capacity that can hold n — spot-check the arithmetic around the
	// class edges.
	for _, n := range []int{1, 2, 3, 255, 256, 257, 1023, 1024} {
		get := sizeClass(n)
		capc := 1 << get // the capacity Get and Rebind allocate
		put := bits.Len(uint(capc)) - 1
		if put != get {
			t.Fatalf("n=%d: Get bucket %d, Put bucket %d — a grown instance would change class", n, get, put)
		}
	}
	// And through the pool itself: a tree gets its own instance back,
	// whether or not its size is a power of two.
	for _, n := range []int{3, 255, 257, 2000} {
		var p MemBookingPool
		tr, ao, peak := ckTree(t, n, 13)
		s, err := p.Get(tr, 2*peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		p.Put(s)
		again, err := p.Get(tr, 2*peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		if again != s {
			t.Errorf("n=%d: Get → Init → Put → Get built a second instance (cap %d)", n, cap(s.need))
		}
	}
}
