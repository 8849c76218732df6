package core

import (
	"math"
	"testing"

	"repro/internal/order"
	"repro/internal/tree"
	"repro/internal/workload"
)

// The checkpoint/restart oracles. A Checkpoint must capture the whole
// run state: restoring it — into the same scheduler instance or a
// fresh one — and continuing must produce exactly the schedule the
// uninterrupted run produces from that point, with every invariant
// held. The event loop here is a miniature deterministic simulator
// (earliest finish time, submission order breaking ties), so schedules
// are comparable event by event.

// ckRun drives s over t with p processors, recording every selected
// task in order. stopAfter ≥ 0 stops after that many completion events
// and returns the still-running set (the in-flight tasks a fail-stop
// failure would kill); -1 runs to completion.
type ckEvent struct {
	id     tree.NodeID
	finish float64
	seq    int
}

type ckLoop struct {
	t       *tree.Tree
	s       *MemBooking
	procs   int
	now     float64
	seq     int
	running []ckEvent
	sched   []tree.NodeID // selection order, the compared schedule
}

func (l *ckLoop) launch() {
	for _, id := range l.s.Select(l.procs - len(l.running)) {
		l.seq++
		l.running = append(l.running, ckEvent{id, l.now + l.t.Time(id), l.seq})
		l.sched = append(l.sched, id)
	}
}

// finishNext completes the earliest-finishing batch (ties by seq). It
// returns false when nothing was running. A task boundary — the legal
// checkpoint instant — is right after finishNext, before the next
// launch.
func (l *ckLoop) finishNext() bool {
	if len(l.running) == 0 {
		return false
	}
	tmin := math.Inf(1)
	for _, e := range l.running {
		if e.finish < tmin {
			tmin = e.finish
		}
	}
	var batch []tree.NodeID
	kept := l.running[:0]
	for _, e := range l.running {
		if e.finish == tmin {
			batch = append(batch, e.id)
		} else {
			kept = append(kept, e)
		}
	}
	l.running = kept
	l.now = tmin
	l.s.OnFinish(batch)
	return true
}

// step is one full iteration: launch at the current boundary, then
// complete the next batch.
func (l *ckLoop) step() bool {
	l.launch()
	return l.finishNext()
}

func ckTree(t *testing.T, n int, seed uint64) (*tree.Tree, *order.Order, float64) {
	t.Helper()
	tr := workload.MustSynthetic(workload.NewRNG(seed), workload.SyntheticOptions{Nodes: n})
	ao, peak := order.MinMemPostOrder(tr)
	return tr, ao, peak
}

func newCkLoop(t *testing.T, tr *tree.Tree, ao *order.Order, m float64, procs int) *ckLoop {
	t.Helper()
	s, err := NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	s.CheckInvariants = true
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	// The loop starts at a task boundary (nothing launched yet); step()
	// launches and then completes the next batch, returning to a boundary.
	return &ckLoop{t: tr, s: s, procs: procs}
}

func equalSched(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRestoreSerialExact: with one processor there is never
// an in-flight task at a boundary, so the continuation of a restored
// run must equal the uninterrupted continuation exactly, at every
// boundary.
func TestCheckpointRestoreSerialExact(t *testing.T) {
	tr, ao, peak := ckTree(t, 60, 11)
	ref := newCkLoop(t, tr, ao, 1.3*peak, 1)
	type snap struct {
		cp   *Checkpoint
		done int // len(ref.sched) at the boundary
	}
	var snaps []snap
	for {
		snaps = append(snaps, snap{ref.s.Checkpoint(), len(ref.sched)})
		if !ref.step() {
			break
		}
	}
	if ref.s.InvariantErr != nil {
		t.Fatal(ref.s.InvariantErr)
	}
	if !ref.s.Done() {
		t.Fatalf("reference run incomplete")
	}
	for bi, sn := range snaps {
		fresh, err := NewMemBooking(tr, 1.3*peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		fresh.CheckInvariants = true
		if err := fresh.Restore(sn.cp); err != nil {
			t.Fatalf("boundary %d: %v", bi, err)
		}
		l := &ckLoop{t: tr, s: fresh, procs: 1}
		for l.step() {
		}
		if fresh.InvariantErr != nil {
			t.Fatalf("boundary %d: %v", bi, fresh.InvariantErr)
		}
		if !fresh.Done() {
			t.Fatalf("boundary %d: restored run incomplete", bi)
		}
		if !equalSched(l.sched, ref.sched[sn.done:]) {
			t.Fatalf("boundary %d: restored schedule diverged:\n got %v\nwant %v", bi, l.sched, ref.sched[sn.done:])
		}
	}
}

// TestCheckpointRestoreParallelKill: with p processors, a fail-stop
// failure kills the in-flight tasks. Restoring the boundary checkpoint
// into a fresh scheduler and into the survivor must yield identical
// continuations, both completing every remaining task under the bound,
// and the restored run must re-execute exactly the tasks unfinished at
// the checkpoint.
func TestCheckpointRestoreParallelKill(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		tr, ao, peak := ckTree(t, 120, uint64(100+procs))
		for _, cut := range []int{1, 5, 17} {
			ref := newCkLoop(t, tr, ao, 1.5*peak, procs)
			for i := 0; i < cut; i++ {
				if !ref.step() {
					break
				}
			}
			cp := ref.s.Checkpoint()
			finishedAt := tr.Len() - cp.Remaining()

			runOut := func(s *MemBooking) []tree.NodeID {
				l := &ckLoop{t: tr, s: s, procs: procs}
				for l.step() {
				}
				if s.InvariantErr != nil {
					t.Fatal(s.InvariantErr)
				}
				if !s.Done() {
					t.Fatalf("restored run incomplete")
				}
				return l.sched
			}

			fresh, err := NewMemBooking(tr, 1.5*peak, ao, ao)
			if err != nil {
				t.Fatal(err)
			}
			fresh.CheckInvariants = true
			if err := fresh.Restore(cp); err != nil {
				t.Fatal(err)
			}
			a := runOut(fresh)

			// The survivor of the failure restores in place: same result.
			if err := ref.s.Restore(cp); err != nil {
				t.Fatal(err)
			}
			b := runOut(ref.s)
			if !equalSched(a, b) {
				t.Fatalf("procs %d cut %d: fresh and in-place restores diverged", procs, cut)
			}
			// The continuation schedules exactly the unfinished tasks (the
			// in-flight ones again, each exactly once).
			if len(a) != tr.Len()-finishedAt {
				t.Fatalf("procs %d cut %d: continuation ran %d tasks, want %d", procs, cut, len(a), tr.Len()-finishedAt)
			}
			seen := make(map[tree.NodeID]bool, len(a))
			for _, id := range a {
				if seen[id] {
					t.Fatalf("task %d scheduled twice after restore", id)
				}
				seen[id] = true
			}
		}
	}
}

// TestAvailableIsWhatSelectReturns pins Available, the count a caller
// may keep as state in place of an empty Select: over seeded trees,
// bounds and processor counts it must equal, at every task boundary,
// the number of tasks Select then hands out — on the running scheduler
// after Init and after each OnFinish (up to the free processors, the
// rest staying available), and in full on a twin restored from that
// boundary's checkpoint, where the in-flight tasks are available again.
func TestAvailableIsWhatSelectReturns(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		tr, ao, peak := ckTree(t, 20+int(seed*37%200), seed)
		m := peak * (1 + float64(seed%5)/4)
		l := newCkLoop(t, tr, ao, m, 1+int(seed%7))
		twin, err := NewMemBooking(tr, m, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		for boundary := 0; ; boundary++ {
			if err := twin.Restore(l.s.Checkpoint()); err != nil {
				t.Fatalf("seed %d boundary %d: %v", seed, boundary, err)
			}
			inFlight := len(l.running)
			if a, got := twin.Available(), len(twin.Select(tr.Len())); a != got || twin.Available() != 0 {
				t.Fatalf("seed %d boundary %d: restored Available() = %d, Select returned %d and left %d", seed, boundary, a, got, twin.Available())
			} else if a != l.s.Available()+inFlight {
				t.Fatalf("seed %d boundary %d: restored Available() = %d, want the running scheduler's %d + %d in flight", seed, boundary, a, l.s.Available(), inFlight)
			}
			a, free, before := l.s.Available(), l.procs-inFlight, len(l.sched)
			l.launch()
			if got := len(l.sched) - before; got != min(a, free) || l.s.Available() != a-got {
				t.Fatalf("seed %d boundary %d: Available() = %d with %d free: Select returned %d and left %d", seed, boundary, a, free, got, l.s.Available())
			}
			if !l.finishNext() {
				break
			}
		}
		if !l.s.Done() || l.s.InvariantErr != nil {
			t.Fatalf("seed %d: run incomplete (invariant error %v)", seed, l.s.InvariantErr)
		}
	}
}

// TestRestoreValidation: mismatched trees, orders and too-small bounds
// are rejected.
func TestRestoreValidation(t *testing.T) {
	tr, ao, peak := ckTree(t, 40, 5)
	l := newCkLoop(t, tr, ao, 2*peak, 2)
	for i := 0; i < 3; i++ {
		l.step()
	}
	cp := l.s.Checkpoint()

	other, oao, _ := ckTree(t, 41, 6)
	s2, err := NewMemBooking(other, 2*peak, oao, oao)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(cp); err == nil {
		t.Fatalf("restore across trees accepted")
	}

	po := order.NaturalPostOrder(tr)
	if po.Name != ao.Name {
		s3, err := NewMemBooking(tr, 2*peak, po, po)
		if err != nil {
			t.Fatal(err)
		}
		if err := s3.Restore(cp); err == nil {
			t.Fatalf("restore across orders accepted")
		}
	}

	small, err := NewMemBooking(tr, cp.BookedMemory()/2, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(cp); err == nil {
		t.Fatalf("restore under a bound below the booked memory accepted")
	}

	if err := l.s.Restore(nil); err == nil {
		t.Fatalf("nil checkpoint accepted")
	}
}

// TestCheckpointIntoReuses: CheckpointInto reuses the destination's
// buffers and still snapshots correctly.
func TestCheckpointIntoReuses(t *testing.T) {
	tr, ao, peak := ckTree(t, 50, 9)
	l := newCkLoop(t, tr, ao, 2*peak, 4)
	var cp *Checkpoint
	cp = l.s.CheckpointInto(cp)
	first := &cp.state[0]
	for l.step() {
		cp = l.s.CheckpointInto(cp)
		if &cp.state[0] != first {
			t.Fatalf("CheckpointInto reallocated")
		}
	}
	if cp.Remaining() != 0 {
		t.Fatalf("final checkpoint has %d remaining", cp.Remaining())
	}
}

// TestCheckpointPolicies: the trigger rules fire exactly as named.
func TestCheckpointPolicies(t *testing.T) {
	if (CheckpointNever{}).Should(1000, 5, 0) {
		t.Fatalf("never fired")
	}
	ev := CheckpointEvery{K: 4}
	if ev.Should(3, 0, 0) || !ev.Should(4, 0, 0) {
		t.Fatalf("every4 misfired")
	}
	if (CheckpointEvery{}).Name() != "every1" || ev.Name() != "every4" {
		t.Fatalf("bad every names")
	}
	op := CheckpointOnPeak{}
	if op.Should(1, 5, 5) || !op.Should(1, 6, 5) {
		t.Fatalf("on-peak misfired")
	}
}
