package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The kernel's contract: one opening call at t=0 with no events, then one
// call per distinct time with that instant's whole batch in push order;
// an event pushed at the current time lands in a later call at the same
// time; the heap starts empty on every Run.
func TestKernelBatchesByInstant(t *testing.T) {
	var k sim.Kernel
	k.Events.Push(99, 99) // left over from an aborted run: Run must drop it
	type call struct {
		at  float64
		ids []int32
	}
	var got []call
	end, err := k.Run(func(now float64, ids []int32) error {
		got = append(got, call{now, append([]int32(nil), ids...)})
		switch {
		case len(ids) == 0:
			k.Events.Push(2, 1)
			k.Events.Push(1, 2)
			k.Events.Push(2, 3)
		case ids[0] == 2:
			k.Events.Push(1, 4) // zero-duration work
		}
		return nil
	})
	if err != nil || end != 2 {
		t.Fatalf("Run = (%g, %v), want (2, nil)", end, err)
	}
	want := []call{{0, nil}, {1, []int32{2}}, {1, []int32{4}}, {2, []int32{1, 3}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
}

func TestKernelStopsAtFirstStepError(t *testing.T) {
	var k sim.Kernel
	boom := errors.New("boom")
	calls := 0
	at, err := k.Run(func(now float64, ids []int32) error {
		calls++
		if len(ids) == 0 {
			k.Events.Push(3, 0)
			k.Events.Push(5, 1)
			return nil
		}
		return boom
	})
	if !errors.Is(err, boom) || at != 3 || calls != 2 {
		t.Fatalf("Run = (%g, %v) after %d calls, want (3, boom) after 2", at, err, calls)
	}
}
