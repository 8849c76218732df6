// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment ID, backed by internal/harness on miniature
// corpora so `go test -bench=.` terminates in minutes) plus
// micro-benchmarks of the algorithmic core: per-event scheduling cost
// (the paper's §5.1 complexity claim), traversal orders, and the sparse
// substrate. For paper-scale corpora use cmd/experiments -scale full.
package repro

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/harness"
	"repro/internal/moldable"
	"repro/internal/multitree"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/service"
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

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b)
		tab, err := harness.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per paper artefact (see DESIGN.md §4 for the index).

func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFigSuite measures the shared sweep engine on the figure trio
// that sweeps the same (instance, heuristic, factor) grid: fig2 computes
// every cell, fig3 and fig4 are pure cache reads. The Serial variant
// pins the engine to one worker; the ratio is the worker-pool speedup.
func BenchmarkFigSuite(b *testing.B)       { benchFigSuite(b, 0) }
func BenchmarkFigSuiteSerial(b *testing.B) { benchFigSuite(b, 1) }

func benchFigSuite(b *testing.B, workers int) {
	b.Helper()
	benchConfig(b) // build the shared corpora outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b)
		cfg.Workers = workers
		for _, id := range []string{"fig2", "fig3", "fig4"} {
			tab, err := harness.Run(id, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				b.Fatalf("%s produced no rows", id)
			}
		}
	}
}

func BenchmarkLowerBoundStats(b *testing.B) { benchExperiment(b, "lb") }
func BenchmarkRedTreeFailures(b *testing.B) { benchExperiment(b, "redfail") }
func BenchmarkAvgMemOrder(b *testing.B)     { benchExperiment(b, "avgmem") }
func BenchmarkMemoryProfile(b *testing.B)   { benchExperiment(b, "profile") }

// Micro-benchmarks of the algorithmic core.

func benchTree(size int) *tree.Tree {
	return workload.MustSynthetic(workload.NewRNG(99),
		workload.SyntheticOptions{Nodes: size})
}

// BenchmarkMemBookingPerEvent measures the amortised scheduling cost per
// task of a full MemBooking run (the §5.1 O(n(H+log n)) claim); the
// ns/node metric is the figure the paper's "overhead below 1ms per node"
// statement refers to.
func BenchmarkMemBookingPerEvent(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(benchName(size), func(b *testing.B) {
			t := benchTree(size)
			ao, peak := order.MinMemPostOrder(t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.NewMemBooking(t, 2*peak, ao, ao)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(t, 8, s, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SchedTime.Seconds()*1e9/float64(size), "sched-ns/node")
			}
		})
	}
}

func BenchmarkActivationPerEvent(b *testing.B) {
	t := benchTree(10000)
	ao, peak := order.MinMemPostOrder(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := baseline.NewActivation(t, 2*peak, ao, ao)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(t, 8, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRedTreePerEvent(b *testing.B) {
	t := benchTree(10000)
	ao, peak := order.MinMemPostOrder(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := baseline.NewMemBookingRedTree(t, 5*peak, ao, ao)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(s.Tree(), 8, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The large-tree benchmark tier: per-event scheduling overhead of all
// three schedulers on trees from 10k to 1M nodes, across the shapes that
// stress different scheduler paths — random (the paper's distribution),
// chains (maximum depth: the ALAP dispatch walk), stars (maximum fanout:
// candidate-head accounting) and the biggest sparse-assembly instance of
// the default corpus. bench.sh records every cell's sched-ns/node in
// BENCH_sweep.json; the paper's flatness claim (Figures 5, 6, 13) is
// that the number stays level as the size grows.

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

func BenchmarkMinMemPostOrder(b *testing.B) {
	t := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.MinMemPostOrder(t)
	}
}

func BenchmarkOptSeq(b *testing.B) {
	t := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.OptSeq(t)
	}
}

func BenchmarkSyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.MustSynthetic(workload.NewRNG(uint64(i)),
			workload.SyntheticOptions{Nodes: 100000})
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
	switch {
	case size >= 1000000:
		return "n1M"
	case size >= 1000:
		return "n" + itoa(size/1000) + "k"
	default:
		return "n" + itoa(size)
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// Ablation and extension benchmarks (DESIGN.md §3 design choices and the
// §8 moldable-tasks extension).

func BenchmarkAblationStudy(b *testing.B) { benchExperiment(b, "ablation") }
func BenchmarkMoldableStudy(b *testing.B) { benchExperiment(b, "moldable") }

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

func BenchmarkMoldableRun(b *testing.B) {
	t := benchTree(10000)
	ao, peak := order.MinMemPostOrder(t)
	prof := moldable.DefaultProfile(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := moldable.NewMemBookingMoldable(t, 2*peak, ao, ao, prof, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(t, 8, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedStudy(b *testing.B) { benchExperiment(b, "dist") }

// BenchmarkRobustSweep measures the duration-uncertainty experiment:
// every perturbation model of internal/perturb realised over both
// miniature corpora, nominal denominators included, through the shared
// sweep engine (bench.sh records it as robust_sweep_ns).
func BenchmarkRobustSweep(b *testing.B) { benchExperiment(b, "robust") }

// BenchmarkMultiSweep measures the multi-tenant cluster experiment:
// the full admission-policy × offered-load × arrival-model grid, every
// cell a complete job-stream simulation over one shared memory pool
// (bench.sh records it as multi_sweep_ns).
func BenchmarkMultiSweep(b *testing.B) { benchExperiment(b, "multi") }

// BenchmarkMultiStreamSweep measures the stream-tier harness
// experiment: seeded MakeStream corpora (mixed-size rungs, burst
// arrivals), one per policy × load cell, through the engine's worker
// pool. The raw-speed numbers come from BenchmarkMultiStreamLarge;
// this one tracks the experiment itself.
func BenchmarkMultiStreamSweep(b *testing.B) { benchExperiment(b, "multi_stream") }

// BenchmarkFaultsSweep measures the fault-tolerance experiment: the
// fault-model × checkpoint-policy × admission-heuristic grid, every
// cell a job-stream simulation with seeded fault injection,
// checkpoint/restart and retry-with-backoff (bench.sh records it as
// faults_sweep_ns).
func BenchmarkFaultsSweep(b *testing.B) { benchExperiment(b, "faults") }

func BenchmarkDistributedRun(b *testing.B) {
	t := benchTree(10000)
	ao, peak := order.MinMemPostOrder(t)
	mapping := distributed.ProportionalMapping(t, 4)
	plat := distributed.Uniform(4, 2, peak, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distributed.Run(t, plat, mapping, ao, ao); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceStudy(b *testing.B) { benchExperiment(b, "price") }

// The raw-speed stream tier: one mixed-size job stream driven through
// multitree.Run end to end. The Large variant is the headline corpus —
// 10k jobs, ~10.5M nodes over 13 log-spaced size rungs (100..100k),
// random/chain/star shapes, Poisson arrivals with bursts — and reports
// the two throughput figures bench.sh records as
// multi_stream_ns_per_node and multi_stream_jobs_per_sec. The Smoke
// variant is the same pipeline at CI scale (≤500 jobs), guarded against
// regression by scripts/bench_guard.sh; ObsSmoke is Smoke with a live
// telemetry observer wired into the event loop, and bench_guard.sh
// additionally fails if its ns/node exceeds the bare Smoke number by
// more than OBS_SLACK percent (default 5) — the enforced cost ceiling
// of the observability hook.

var (
	streamOnce  sync.Once
	streamSpecs []multitree.JobSpec
	streamInfo  *multitree.StreamInfo
)

func streamCorpus() ([]multitree.JobSpec, *multitree.StreamInfo) {
	streamOnce.Do(func() {
		streamSpecs, streamInfo = multitree.MakeStream(&multitree.StreamOptions{Seed: 7})
	})
	return streamSpecs, streamInfo
}

// benchStream times multitree.Run over one corpus. newObs, when
// non-nil, builds a fresh observer per iteration (closed outside the
// timed window — the daemon amortizes construction over its lifetime,
// so only the per-event emission cost belongs in ns/node).
func benchStream(b *testing.B, specs []multitree.JobSpec, info *multitree.StreamInfo, newObs func() *obs.Observer) {
	b.Helper()
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var o *obs.Observer
		if newObs != nil {
			o = newObs()
		}
		start := time.Now()
		res, err := multitree.Run(specs, &multitree.Options{
			Procs: 32, Mem: info.Mem, Policy: multitree.EASY{}, Observer: o})
		elapsed += time.Since(start)
		o.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Events != info.TotalNodes {
			b.Fatalf("committed %d events, corpus has %d nodes", res.Events, info.TotalNodes)
		}
	}
	b.StopTimer()
	perRun := elapsed.Seconds() / float64(b.N)
	b.ReportMetric(elapsed.Seconds()*1e9/float64(b.N)/float64(info.TotalNodes), "ns/node")
	b.ReportMetric(float64(info.Jobs)/perRun, "jobs/sec")
}

func BenchmarkMultiStreamLarge(b *testing.B) {
	specs, info := streamCorpus()
	benchStream(b, specs, info, nil)
}

func smokeCorpus() ([]multitree.JobSpec, *multitree.StreamInfo) {
	return multitree.MakeStream(&multitree.StreamOptions{
		Seed: 7, Jobs: 500, MinNodes: 50, MaxNodes: 5000, Rungs: 9})
}

func BenchmarkMultiStreamSmoke(b *testing.B) {
	specs, info := smokeCorpus()
	benchStream(b, specs, info, nil)
}

// BenchmarkMultiStreamObsSmoke is the smoke corpus with telemetry on:
// a single-producer observer (Run emits from one goroutine) with no
// subscribers, the daemon's steady state when nobody watches /streamz.
// bench_guard.sh holds its ns/node within OBS_SLACK percent of the
// bare Smoke run.
func BenchmarkMultiStreamObsSmoke(b *testing.B) {
	specs, info := smokeCorpus()
	benchStream(b, specs, info, func() *obs.Observer {
		return obs.New(&obs.Options{Ring: 1 << 14, SingleProducer: true})
	})
}

// BenchmarkServiceJobsThroughput measures the asynchronous job API end
// to end: waves of POST /jobs submissions of a warm (cache-resident)
// tree, polled to completion, reported as jobs/sec (bench.sh records it
// as service_jobs_per_sec).
func BenchmarkServiceJobsThroughput(b *testing.B) {
	srv := service.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t := benchTree(1000)
	var buf bytes.Buffer
	if err := tree.Write(&buf, t); err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"tree": buf.String()})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	const wave = 128
	runWave := func() {
		ids := make([]uint64, 0, wave)
		for len(ids) < wave {
			resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			var jv service.JobView
			err = json.NewDecoder(resp.Body).Decode(&jv)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit status %d", resp.StatusCode)
			}
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, jv.ID)
		}
		for _, id := range ids {
			for {
				resp, err := client.Get(ts.URL + "/jobs/" + itoa(int(id)))
				if err != nil {
					b.Fatal(err)
				}
				var jv service.JobView
				err = json.NewDecoder(resp.Body).Decode(&jv)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				if jv.Status == service.JobDone {
					break
				}
				if jv.Status == service.JobFailed {
					b.Fatalf("job %d failed: %s", id, jv.Error)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	runWave() // first wave pays preparation; measured waves are warm
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		runWave()
		elapsed += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(wave)*float64(b.N)/elapsed.Seconds(), "jobs/sec")
}

// BenchmarkServiceRequest measures one warm scheduling request through
// the full treeschedd HTTP stack: a 10k-node tree already resident in
// the prepared-instance cache, MemBooking at the default bound, JSON in
// and out (bench.sh records it as service_req_ns). The gap between this
// and a cold request is the prepared-instance cache's win.
func BenchmarkServiceRequest(b *testing.B) {
	srv := service.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t := benchTree(10000)
	var buf bytes.Buffer
	if err := tree.Write(&buf, t); err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"tree": buf.String()})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	do := func() {
		resp, err := client.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	do() // first sight pays the preparation; the measured loop is warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}
