package multitree

import (
	"math"
	"testing"

	"repro/internal/order"
	"repro/internal/workload"
)

func TestMakeStreamDeterministic(t *testing.T) {
	a, ia := MakeStream(&StreamOptions{Seed: 3, Jobs: 200, MinNodes: 50, MaxNodes: 1000, Rungs: 5})
	b, ib := MakeStream(&StreamOptions{Seed: 3, Jobs: 200, MinNodes: 50, MaxNodes: 1000, Rungs: 5})
	if ia.Jobs != ib.Jobs || ia.TotalNodes != ib.TotalNodes || ia.TotalWork != ib.TotalWork || ia.MaxPeak != ib.MaxPeak {
		t.Fatalf("same seed, different info: %+v vs %+v", ia, ib)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Arrival != b[i].Arrival || a[i].Peak != b[i].Peak {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, ic := MakeStream(&StreamOptions{Seed: 4, Jobs: 200, MinNodes: 50, MaxNodes: 1000, Rungs: 5})
	if ic.TotalWork == ia.TotalWork && c[0].Arrival == a[0].Arrival {
		t.Fatal("different seeds produced an identical corpus")
	}
}

func TestMakeStreamShape(t *testing.T) {
	specs, info := MakeStream(&StreamOptions{Seed: 9, Jobs: 400, MinNodes: 100, MaxNodes: 10000, Rungs: 7})
	if info.Jobs != len(specs) {
		t.Fatalf("info says %d jobs, got %d specs", info.Jobs, len(specs))
	}
	// Counts fall off with size, so jobs land near (not exactly, per-rung
	// rounding) the target; every spec carries a precomputed order.
	if info.Jobs < 350 || info.Jobs > 450 {
		t.Fatalf("job count %d far from target 400", info.Jobs)
	}
	minSz, maxSz := math.MaxInt, 0
	prev := math.Inf(-1)
	for i := range specs {
		if specs[i].AO == nil || specs[i].Peak <= 0 {
			t.Fatalf("job %d missing precomputed order/peak", i)
		}
		if !specs[i].AO.TopologicalFor(specs[i].Tree) {
			t.Fatalf("job %d precomputed order is not topological", i)
		}
		if specs[i].Arrival < prev {
			t.Fatalf("arrivals not sorted at job %d", i)
		}
		prev = specs[i].Arrival
		if n := specs[i].Tree.Len(); n < minSz {
			minSz = n
		} else if n > maxSz {
			maxSz = n
		}
	}
	if minSz > 100 || maxSz < 5000 {
		t.Fatalf("size spread [%d, %d] does not cover the rung range", minSz, maxSz)
	}
	// Bursts: some arrival instants must repeat (simultaneous group).
	bursts := 0
	for i := 1; i < len(specs); i++ {
		if specs[i].Arrival == specs[i-1].Arrival {
			bursts++
		}
	}
	if bursts == 0 {
		t.Fatal("no simultaneous burst arrivals in the stream")
	}
}

// TestStreamPrecomputedMatchesDerived pins the JobSpec.AO/Peak fast
// path: a stream replayed with its precomputed orders must schedule
// exactly like the same stream with the orders recomputed inside Run.
func TestStreamPrecomputedMatchesDerived(t *testing.T) {
	specs, info := MakeStream(&StreamOptions{Seed: 11, Jobs: 120, MinNodes: 50, MaxNodes: 800, Rungs: 5})
	bare := make([]JobSpec, len(specs))
	for i, sp := range specs {
		bare[i] = JobSpec{Name: sp.Name, Tree: sp.Tree, Arrival: sp.Arrival}
	}
	opt := &Options{Procs: 16, Mem: info.Mem, Policy: EASY{}}
	a, err := Run(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(bare, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Events != b.Events || a.BusyTime != b.BusyTime {
		t.Fatalf("precomputed orders changed the schedule: %+v vs %+v", a, b)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Start != jb.Start || ja.Finish != jb.Finish || ja.Slice != jb.Slice || ja.Peak != jb.Peak {
			t.Fatalf("job %d differs: %+v vs %+v", i, ja, jb)
		}
	}
}

// TestSteadyStateAllocsPerJob is the arena regression guard. Before the
// scheduler-state pool (and the value-slice jobs, recycled batch/scratch
// buffers and gated admission), this exact workload cost 235 allocations
// per job; the pool target is at least 30% below that (≤ 164). The
// measured steady state is ~27 allocs/job, so the bound here is pinned
// far tighter — loosening it past 60 means the recycling regressed.
func TestSteadyStateAllocsPerJob(t *testing.T) {
	const jobs = 300
	specs := make([]JobSpec, jobs)
	for i := range specs {
		tr := workload.MustSynthetic(workload.NewRNG(uint64(i)+12345), workload.SyntheticOptions{Nodes: 200})
		specs[i] = JobSpec{Name: "j", Tree: tr, Arrival: float64(i) * 30}
	}
	opt := &Options{Procs: 16, Mem: 1e7, Policy: EASY{}}
	if _, err := Run(specs, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(specs, opt); err != nil {
			t.Fatal(err)
		}
	})
	perJob := allocs / jobs
	t.Logf("allocs/job = %.2f (pre-arena baseline: 235.5)", perJob)
	if perJob > 60 {
		t.Fatalf("steady-state allocations regressed: %.2f allocs/job, want ≤ 60 (pre-arena was 235.5, the hard target ≤ 164)", perJob)
	}
}

// TestSequentialJobsReuseState is the steady state TestSteadyStateAllocsPerJob
// does not reach (there every job is active at once, so every job needs
// fresh state): jobs that never overlap, with precomputed orders, must
// each get the previous job's scheduler and laid-out tree back from the
// pools. Either one allocated per job would cost 4 or more allocations
// per job; the run stays near 1.
func TestSequentialJobsReuseState(t *testing.T) {
	const jobs = 300
	specs := make([]JobSpec, jobs)
	for i := range specs {
		tr := workload.MustSynthetic(workload.NewRNG(uint64(i)+12345), workload.SyntheticOptions{Nodes: 200})
		ao, peak := order.MinMemPostOrder(tr)
		specs[i] = JobSpec{Name: "j", Tree: tr, Arrival: float64(i) * 1e5, AO: ao, Peak: peak}
	}
	opt := &Options{Procs: 16, Mem: 1e7, Policy: EASY{}}
	if _, err := Run(specs, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(specs, opt); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := allocs / jobs; perJob > 2 {
		t.Fatalf("jobs that never overlap allocate %.2f times each, want ≤ 2: a pool stopped recycling", perJob)
	}
}
