package sim_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/moldable"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// traced runs MemBooking at twice the sequential peak on p processors
// with a Trace.
func traced(t *testing.T, tr *tree.Tree, p int, rec *sim.Trace) *sim.Result {
	t.Helper()
	_, peak := order.MinMemPostOrder(tr)
	res, err := sim.Run(tr, p, mb(t, tr, 2*peak), &sim.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The recorded spans are the schedule: every task exactly once, sorted
// by (Start, Node), lasting its duration, and inside the makespan.
func TestTraceRecordsEveryTaskOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	rec := &sim.Trace{}
	for trial := 0; trial < 20; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		res := traced(t, tr, 1+trial%8, rec)
		if len(rec.Spans) != tr.Len() {
			t.Fatalf("%d spans for %d tasks", len(rec.Spans), tr.Len())
		}
		seen := make([]bool, tr.Len())
		for k, s := range rec.Spans {
			if seen[s.Node] {
				t.Fatalf("task %d recorded twice", s.Node)
			}
			seen[s.Node] = true
			if k > 0 {
				if prev := rec.Spans[k-1]; prev.Start > s.Start || prev.Start == s.Start && prev.Node > s.Node {
					t.Fatalf("span %d %+v out of (Start, Node) order after %+v", k, s, prev)
				}
			}
			if want := tr.Time(s.Node); s.End-s.Start != want {
				t.Fatalf("span of %d lasts %g, want %g", s.Node, s.End-s.Start, want)
			}
			if s.End > res.Makespan+1e-9 {
				t.Fatalf("span of %d ends after the makespan", s.Node)
			}
		}
	}
}

// No recorded parent starts before one of its children ends.
func TestTraceRespectsPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	rec := &sim.Trace{}
	for trial := 0; trial < 20; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		traced(t, tr, 1+trial%8, rec)
		end := make([]float64, tr.Len())
		for _, s := range rec.Spans {
			end[s.Node] = s.End
		}
		for _, s := range rec.Spans {
			for _, c := range tr.Children(s.Node) {
				if end[c] > s.Start+1e-9 {
					t.Fatalf("task %d started before child %d finished", s.Node, c)
				}
			}
		}
	}
}

// A rerun on the same Trace records the same spans, not the previous
// run's plus its own, including after a run on a larger tree.
func TestTraceReRun(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	rec := &sim.Trace{}
	traced(t, randTree(rng, 120), 4, rec)
	for trial := 0; trial < 20; trial++ {
		tr := randTree(rng, 1+rng.Intn(80))
		traced(t, tr, 1+trial%8, rec)
		first := append([]sim.Span(nil), rec.Spans...)
		traced(t, tr, 1+trial%8, rec)
		if len(rec.Spans) != tr.Len() || len(first) != tr.Len() {
			t.Fatalf("runs recorded %d and %d spans for %d tasks", len(first), len(rec.Spans), tr.Len())
		}
		for i := range first {
			if rec.Spans[i] != first[i] {
				t.Fatalf("span %d differs on rerun: %+v vs %+v", i, rec.Spans[i], first[i])
			}
		}
	}
}

// A Wide scheduler is traced at the widths it was granted: every span
// lasts Shape's duration, the spans open at any instant never hold more
// than p processors, and tracing does not change the run.
func TestTraceRecordsWideTasks(t *testing.T) {
	const p = 8
	tr := workload.MustSynthetic(workload.NewRNG(5), workload.SyntheticOptions{Nodes: 300})
	ao, peak := order.MinMemPostOrder(tr)
	build := func() *moldable.MemBookingMoldable {
		ms, err := moldable.NewMemBookingMoldable(tr, 3*peak, ao, ao, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	want, err := sim.Run(tr, p, build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := build()
	rec := &sim.Trace{}
	got, err := sim.Run(tr, p, ms, &sim.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.WideTasks != want.WideTasks {
		t.Fatalf("traced run %+v differs from untraced %+v", got, want)
	}
	if got.WideTasks == 0 {
		t.Fatal("no task ran wide: the instance does not exercise Shape")
	}
	if len(rec.Spans) != tr.Len() {
		t.Fatalf("%d spans for %d tasks", len(rec.Spans), tr.Len())
	}
	for _, s := range rec.Spans {
		_, d, _ := ms.Shape(s.Node)
		if math.Abs(s.End-s.Start-d) > 1e-9*(1+d) {
			t.Fatalf("span of %d lasts %g, Shape says %g", s.Node, s.End-s.Start, d)
		}
		busy := 0
		for _, o := range rec.Spans {
			if o.Start <= s.Start && s.Start < o.End {
				q, _, _ := ms.Shape(o.Node)
				busy += q
			}
		}
		if busy > p {
			t.Fatalf("%d processors busy at t=%g on p=%d", busy, s.Start, p)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	tr := randTree(rng, 30)
	rec := &sim.Trace{}
	res := traced(t, tr, 3, rec)
	var buf bytes.Buffer
	if err := sim.Gantt(&buf, rec.Spans, res.Makespan, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + at most 3 processor lanes (p=3).
	if len(lines) < 2 || len(lines) > 4 {
		t.Fatalf("gantt has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "P0") {
		t.Fatalf("missing lane label:\n%s", out)
	}
	if err := sim.Gantt(&buf, rec.Spans, 0, 60); err == nil {
		t.Fatal("zero makespan accepted")
	}
}

func TestRenderMemory(t *testing.T) {
	samples := []sim.MemSample{
		{Time: 0, Used: 1, Booked: 2},
		{Time: 1, Used: 3, Booked: 4},
		{Time: 2, Used: 2, Booked: 2},
	}
	var buf bytes.Buffer
	if err := sim.RenderMemory(&buf, samples, 4, 40, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "bound") {
		t.Fatalf("memory chart incomplete:\n%s", out)
	}
	if err := sim.RenderMemory(&buf, nil, 1, 40, 4); err == nil {
		t.Fatal("empty samples accepted")
	}

	// A momentary peak is not a plateau: after t = 0.3 the level is 10,
	// then 0, so no column past the peak's own reaches the top row.
	buf.Reset()
	spike := []sim.MemSample{{Time: 0, Used: 50}, {Time: 0.2, Used: 100}, {Time: 0.3, Used: 10}, {Time: 10, Used: 0}}
	if err := sim.RenderMemory(&buf, spike, 100, 20, 4); err != nil {
		t.Fatal(err)
	}
	top := strings.SplitN(buf.String(), "\n", 2)[0]
	if want := "|#                   | 100 (bound)"; top != want {
		t.Fatalf("top row %q, want %q; chart:\n%s", top, want, buf.String())
	}
}
