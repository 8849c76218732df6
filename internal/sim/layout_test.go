package sim_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// shapeTree generates an n-node tree of the named shape with the
// paper's size distribution.
func shapeTree(tb testing.TB, shape string, seed uint64, n int) *tree.Tree {
	tb.Helper()
	var (
		tr  *tree.Tree
		err error
	)
	rng := workload.NewRNG(seed)
	switch shape {
	case "chain":
		tr, err = workload.Chain(rng, n)
	case "star":
		tr, err = workload.Star(rng, n)
	default:
		tr, err = workload.Synthetic(rng, workload.SyntheticOptions{Nodes: n})
	}
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// tracedRun runs MemBooking over (t, m, ao as both orders) on p processors
// with CheckMemory and a trace.
func tracedRun(t *testing.T, tr *tree.Tree, p int, m float64, ao *order.Order) (*sim.Result, *sim.Trace) {
	t.Helper()
	s, err := core.NewMemBooking(tr, m, ao, ao)
	if err != nil {
		t.Fatal(err)
	}
	trace := &sim.Trace{}
	res, err := sim.Run(tr, p, s, &sim.Options{CheckMemory: true, Bound: m, Trace: trace, NoSchedTime: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

// TestLaidOutRunMatchesOriginal: MemBooking on a tree and on the tree
// laid out in its activation order, there under the identity orders,
// is one schedule in two numberings. Makespan, PeakMem and PeakBooked
// are bit-equal, so are the memory samples, and the spans are the same
// once the layout's nodes are mapped back through AO.Seq.
func TestLaidOutRunMatchesOriginal(t *testing.T) {
	var ids order.Identities
	bits := math.Float64bits
	for seed := uint64(1); seed <= 30; seed++ {
		shape := [...]string{"random", "chain", "star"}[seed%3]
		tr := shapeTree(t, shape, seed, 20+int(seed*seed*7)%1500)
		ao, peak := order.MinMemPostOrder(tr)
		lay, err := tr.LayOut(ao.Seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		id := ids.Order(tr.Len())
		for _, f := range []float64{1, 1.25, 2, 100} {
			for _, p := range []int{1, 3, 16} {
				m := f * peak
				want, wantTr := tracedRun(t, tr, p, m, ao)
				got, gotTr := tracedRun(t, lay, p, m, id)
				if bits(got.Makespan) != bits(want.Makespan) || bits(got.PeakMem) != bits(want.PeakMem) ||
					bits(got.PeakBooked) != bits(want.PeakBooked) || got.Events != want.Events {
					t.Fatalf("%s seed %d, M = %g·peak, p = %d: laid out %+v, original %+v", shape, seed, f, p, *got, *want)
				}
				if !slices.Equal(gotTr.Mem, wantTr.Mem) {
					t.Fatalf("%s seed %d, M = %g·peak, p = %d: the memory samples differ", shape, seed, f, p)
				}
				mapped := gotTr.Spans
				for k := range mapped {
					mapped[k].Node = ao.Seq[mapped[k].Node]
				}
				slices.SortFunc(mapped, func(a, b sim.Span) int {
					return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Node, b.Node))
				})
				if !slices.Equal(mapped, wantTr.Spans) {
					t.Fatalf("%s seed %d, M = %g·peak, p = %d: the spans differ once mapped back", shape, seed, f, p)
				}
			}
		}
	}
}

// BenchmarkRunLayout times one MemBooking simulation (M = 2·peak,
// p = 32) per node on random, chain and star trees from 10k to 1M
// nodes, in the generated numbering and laid out in memPO order, and
// the layout itself: the cost a simulation would pay to lay its tree
// out first.
func BenchmarkRunLayout(b *testing.B) {
	var ids order.Identities
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		for _, shape := range []string{"random", "chain", "star"} {
			b.Run(fmt.Sprintf("%s/n%d", shape, n), func(b *testing.B) {
				tr := shapeTree(b, shape, 1, n)
				ao, peak := order.MinMemPostOrder(tr)
				lay, err := tr.LayOut(ao.Seq, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Run("generated", func(b *testing.B) { benchRun(b, tr, ao, peak) })
				b.Run("laidout", func(b *testing.B) { benchRun(b, lay, ids.Order(n), peak) })
				b.Run("layout", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if lay, err = tr.LayOut(ao.Seq, lay); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
				})
			})
		}
	}
}

func benchRun(b *testing.B, tr *tree.Tree, ao *order.Order, peak float64) {
	s, err := core.NewMemBooking(tr, 2*peak, ao, ao)
	if err != nil {
		b.Fatal(err)
	}
	var r sim.Runner
	opt := &sim.Options{NoSchedTime: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(tr, 32, s, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/node")
}
