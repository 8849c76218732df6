package sim_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

var update = flag.Bool("update", false, "rewrite testdata/render.golden from this tree's renderers")

// TestRenderGolden pins the bytes of Gantt and RenderMemory on fixed
// traces: a MemBooking run drawn against its bound and against the
// data's own scale, a run that deadlocks (the trace keeps what ran
// before the stall), and a hand-written spike. A refactor of the
// renderers leaves testdata/render.golden untouched; a change that
// means to move a byte regenerates it with
// `go test ./internal/sim -run TestRenderGolden -update`.
func TestRenderGolden(t *testing.T) {
	const path = "testdata/render.golden"
	var got bytes.Buffer
	section := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	tr := randTree(rand.New(rand.NewSource(263)), 70)
	_, peak := order.MinMemPostOrder(tr)
	rec := &sim.Trace{}
	res := traced(t, tr, 3, rec)
	fmt.Fprintf(&got, "== run: gantt 90 ==\n")
	section("run gantt", sim.Gantt(&got, rec.Spans, res.Makespan, 90))
	fmt.Fprintf(&got, "== run: memory bound=%g 90x8 ==\n", 2*peak)
	section("run memory", sim.RenderMemory(&got, rec.Mem, 2*peak, 90, 8))
	fmt.Fprintf(&got, "== run: memory bound=0 33x5 ==\n")
	section("run memory autoscaled", sim.RenderMemory(&got, rec.Mem, 0, 33, 5))

	// A leaf that completes under a root whose need is over the bound:
	// MemBooking finishes the leaf, then stalls.
	dl := tree.MustNew([]tree.NodeID{tree.None, 0, 0, 1}, []float64{5, 1, 2, 1}, []float64{4, 1, 2, 1}, []float64{1, 3, 2, 4})
	ao, _ := order.MinMemPostOrder(dl)
	const bound = 9
	s, err := core.NewMemBooking(dl, bound, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	rec = &sim.Trace{}
	var dead *core.ErrDeadlock
	if _, err := sim.Run(dl, 2, s, &sim.Options{Trace: rec}); !errors.As(err, &dead) {
		t.Fatalf("deadlock case: err %v, want a deadlock", err)
	}
	end := rec.Mem[len(rec.Mem)-1].Time
	for _, sp := range rec.Spans {
		end = max(end, sp.End)
	}
	fmt.Fprintf(&got, "== deadlock after %d of %d: gantt 40 ==\n", dead.Finished, dead.Total)
	section("deadlock gantt", sim.Gantt(&got, rec.Spans, end, 40))
	fmt.Fprintf(&got, "== deadlock: memory bound=%d 40x4 ==\n", bound)
	section("deadlock memory", sim.RenderMemory(&got, rec.Mem, bound, 40, 4))

	spike := []sim.MemSample{
		{Time: 0, Used: 50, Booked: 60}, {Time: 0.2, Used: 100, Booked: 100},
		{Time: 0.3, Used: 10, Booked: 70}, {Time: 4, Used: 30, Booked: 30},
		{Time: 4.05, Used: 90, Booked: 95}, {Time: 4.1, Used: 20, Booked: 40},
		{Time: 10, Used: 0},
	}
	fmt.Fprintf(&got, "== spike: memory bound=100 20x4 ==\n")
	section("spike memory", sim.RenderMemory(&got, spike, 100, 20, 4))
	fmt.Fprintf(&got, "== spike: memory bound=0 57x6 ==\n")
	section("spike memory autoscaled", sim.RenderMemory(&got, spike, 0, 57, 6))

	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendering differs from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.Bytes())
	}
}
