// Go benchmarks for what the repository's benchmark (bench/, see
// BENCHMARK.json) does not time: every experiment ID on miniature
// corpora (BenchmarkExperiment/<id>, so `go test -bench=.` terminates in
// minutes), the large-tree tier across all three schedulers (the §5.1
// flatness claim; bench/ reports the MemBooking rows only), and
// micro-benchmarks of traversal orders, the lazy-BBS ablation and the
// sparse substrate. Numbers of record come from bench/run.sh; these are
// for measuring while you work. For paper-scale corpora use
// cmd/experiments -scale full.
package repro

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tree"
	"repro/internal/workload"
)

// benchCfg builds the miniature corpora once.
var (
	benchOnce sync.Once
	benchAsm  []workload.Instance
	benchSyn  []workload.Instance
)

func benchConfig(b *testing.B) *harness.Config {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchAsm, err = workload.AssemblyCorpus(1, workload.AssemblyCorpusOptions{
			Grids2D:       []int{16, 24},
			RandomN:       []int{300},
			Bands:         [][2]int{{1200, 2}},
			Amalgamations: []int{4},
		})
		if err != nil {
			b.Fatal(err)
		}
		benchSyn = workload.SyntheticCorpus(1, 4, []int{500, 2000})
	})
	return &harness.Config{
		Seed: 1, Procs: 8,
		MemFactors: []float64{1, 1.25, 2, 5, 10},
		Assembly:   benchAsm,
		Synthetic:  benchSyn,
	}
}

// BenchmarkExperiment regenerates each table and figure of the paper
// (DESIGN.md §4 has the index) on a cold engine per iteration.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range harness.IDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := harness.Run(id, benchConfig(b))
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
			}
		})
	}
}

// Micro-benchmarks of the algorithmic core.

func benchTree(size int) *tree.Tree {
	return workload.MustSynthetic(workload.NewRNG(99),
		workload.SyntheticOptions{Nodes: size})
}

// The large-tree benchmark tier: per-event scheduling overhead of all
// three schedulers on trees from 10k to 1M nodes, across the shapes that
// stress different scheduler paths — random (the paper's distribution),
// chains (maximum depth: the ALAP dispatch walk), stars (maximum fanout:
// candidate-head accounting) and the biggest sparse-assembly instance of
// the default corpus. The paper's flatness claim (Figures 5, 6, 13) is
// that sched-ns/node stays level as the size grows.

// largeSpec lazily builds one tier instance; sub-benchmarks excluded by
// -bench never pay for construction (the CI smoke run builds only the
// 10k trees).
type largeSpec struct {
	name  string
	build func() *tree.Tree
}

func largeSpecs() []largeSpec {
	specs := []largeSpec{}
	for _, n := range []int{10000, 100000, 1000000} {
		n := n
		specs = append(specs, largeSpec{"random/" + benchName(n), func() *tree.Tree {
			return workload.MustSynthetic(workload.NewRNG(2024), workload.SyntheticOptions{Nodes: n})
		}})
	}
	for _, n := range []int{10000, 1000000} {
		n := n
		specs = append(specs, largeSpec{"chain/" + benchName(n), func() *tree.Tree {
			t, err := workload.Chain(workload.NewRNG(2025), n)
			if err != nil {
				panic(err)
			}
			return t
		}})
		specs = append(specs, largeSpec{"star/" + benchName(n), func() *tree.Tree {
			t, err := workload.Star(workload.NewRNG(2026), n)
			if err != nil {
				panic(err)
			}
			return t
		}})
	}
	specs = append(specs, largeSpec{"assembly/max", func() *tree.Tree {
		// The biggest instance of workload.DefaultAssemblyCorpus: the
		// 256×256 grid factored under nested dissection, amalgamation 1.
		p, coords := sparse.Grid2D(256, 256)
		perm := sparse.NestedDissection(coords, 8)
		res, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: 1})
		if err != nil {
			panic(err)
		}
		return res.Tree
	}})
	return specs
}

// largePrepared caches built tier instances (tree + memPO order + peak)
// across the scheduler sub-benchmarks that share them.
type largePrepared struct {
	t    *tree.Tree
	ao   *order.Order
	peak float64
}

var (
	largeMu    sync.Mutex
	largeCache = map[string]largePrepared{}
)

func largeInstance(spec largeSpec) largePrepared {
	largeMu.Lock()
	defer largeMu.Unlock()
	if pr, ok := largeCache[spec.name]; ok {
		return pr
	}
	t := spec.build()
	ao, peak := order.MinMemPostOrder(t)
	pr := largePrepared{t: t, ao: ao, peak: peak}
	largeCache[spec.name] = pr
	return pr
}

func BenchmarkSchedPerEventLarge(b *testing.B) {
	for _, sched := range []string{"MemBooking", "Activation", "RedTree"} {
		for _, spec := range largeSpecs() {
			sched, spec := sched, spec
			b.Run(sched+"/"+spec.name, func(b *testing.B) {
				benchLargeCell(b, sched, spec)
			})
		}
	}
}

func benchLargeCell(b *testing.B, sched string, spec largeSpec) {
	inst := largeInstance(spec)
	// One scheduler instance per cell, re-Init in place each run (the
	// zero-allocation re-run contract the sweep engine relies on).
	var (
		s   core.Scheduler
		run = inst.t
		err error
	)
	switch sched {
	case "MemBooking":
		s, err = core.NewMemBooking(inst.t, 2*inst.peak, inst.ao, inst.ao)
	case "Activation":
		s, err = baseline.NewActivation(inst.t, 2*inst.peak, inst.ao, inst.ao)
	case "RedTree":
		// RedTree needs the larger factor the paper reports (it books
		// fictitious data on transformed general trees).
		var rt *baseline.MemBookingRedTree
		rt, err = baseline.NewMemBookingRedTree(inst.t, 5*inst.peak, inst.ao, inst.ao)
		if err == nil {
			s, run = rt, rt.Tree()
		}
	default:
		b.Fatalf("unknown scheduler %q", sched)
	}
	if err != nil {
		b.Fatal(err)
	}
	var r sim.Runner
	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(run, 8, s, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += res.SchedTime
	}
	b.StopTimer()
	// Per node of the simulated tree (RedTree runs on the transformed
	// tree, which includes its fictitious leaves).
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N)/float64(run.Len()), "sched-ns/node")
}

func BenchmarkOptSeq(b *testing.B) {
	t := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.OptSeq(t)
	}
}

func BenchmarkEliminationTree(b *testing.B) {
	p, _ := sparse.Grid2D(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.EliminationTree(p)
	}
}

func BenchmarkColCounts(b *testing.B) {
	p, coords := sparse.Grid2D(96, 96)
	pp, err := p.Permute(sparse.NestedDissection(coords, 8))
	if err != nil {
		b.Fatal(err)
	}
	parent := sparse.EliminationTree(pp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.ColCounts(pp, parent)
	}
}

func BenchmarkMinimumDegree(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := sparse.RandomSym(1500, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.MinimumDegree(p)
	}
}

func BenchmarkAssemblyTree(b *testing.B) {
	p, coords := sparse.Grid2D(64, 64)
	perm := sparse.NestedDissection(coords, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(size int) string {
	if size >= 1000000 {
		return "n1M"
	}
	return "n" + strconv.Itoa(size/1000) + "k"
}

// BenchmarkAblationLazyBBS isolates the §5.1 lazy-initialisation
// optimisation: identical decisions, different bookkeeping cost.
func BenchmarkAblationLazyBBS(b *testing.B) {
	t := benchTree(50000)
	ao, peak := order.MinMemPostOrder(t)
	for _, recompute := range []bool{false, true} {
		name := "lazy"
		if recompute {
			name = "recompute"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.NewMemBooking(t, 1.2*peak, ao, ao)
				if err != nil {
					b.Fatal(err)
				}
				s.SetRecomputeBBS(recompute)
				res, err := sim.Run(t, 8, s, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SchedTime.Seconds()*1e9/50000, "sched-ns/node")
			}
		})
	}
}
