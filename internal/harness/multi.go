package harness

import (
	"fmt"
	"slices"

	"repro/internal/multitree"
	"repro/internal/order"
	"repro/internal/workload"
)

// The multi experiment: the paper's guarantee is per-tree, but a
// shared cluster faces a *stream* of independent tree jobs competing
// for one processor/memory pool. internal/multitree carves each
// admitted job a memory slice M_j ≥ peak(AO_j) out of the global pool
// (so Theorem 1 composes and no admitted job can deadlock) and shares
// the processors through one event loop driving the per-tree
// MemBooking schedulers unchanged. This experiment sweeps the
// admission/partition policy × offered load × arrival model grid over
// one deterministic job corpus and tabulates the job-stream metrics:
// response time, bounded slowdown, utilization, queue depth and peak
// reserved memory. Cells are independent simulations, evaluated on the
// Config's worker pool; rows are emitted in grid order, so serial and
// parallel runs are byte-identical.

// multiJobs is the job corpus: a fixed count of synthetic trees with
// sizes cycling through multiSizes, derived from the Config seed only.
const multiJobs = 24

var multiSizes = []int{80, 200, 400}

// multiLoads are the offered loads ρ (arrival rate × mean work / p):
// under-, critically- and over-loaded.
func multiLoads() []float64 { return []float64{0.5, 1, 2} }

// multiPolicies is the compared policy set: arrival order, smallest
// bound first, equal memory shares, and EASY-style backfilling.
func multiPolicies() []multitree.Policy {
	return []multitree.Policy{
		multitree.FCFS{},
		multitree.SBF{},
		multitree.FairShare{Shares: 4},
		multitree.EASY{},
	}
}

// multiStudy implements the `multi` experiment.
func multiStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "multi",
		Title: "multi-tenant cluster: policy × load × arrival sweep over one shared memory pool",
		Header: []string{"policy", "arrival", "load", "jobs",
			"resp_mean", "resp_d9", "bsld_mean", "bsld_max",
			"util", "avg_queue", "max_queue", "peak_mem_frac"}}
	p := cfg.procs()

	// One deterministic corpus shared by every cell: trees from the
	// Config seed, sizes cycling, plus the per-job peak (for the pool
	// size) and total work (for the load calibration).
	corpus := make([]multitree.JobSpec, multiJobs)
	maxPeak, totalWork := 0.0, 0.0
	for i := range corpus {
		sz := multiSizes[i%len(multiSizes)]
		tr := workload.MustSynthetic(workload.NewRNG(cfg.Seed+uint64(i)*1000003+uint64(sz)), workload.SyntheticOptions{Nodes: sz})
		ao, peak := order.MinMemPostOrder(tr)
		corpus[i] = multitree.JobSpec{Name: fmt.Sprintf("mjob%02d-n%d", i, sz), Tree: tr, AO: ao, Peak: peak}
		maxPeak = max(maxPeak, peak)
		totalWork += tr.TotalWork()
	}
	// The pool holds four maximal slices: enough concurrency for the
	// policies to differ, tight enough that admission queues form.
	mem := 4 * maxPeak
	meanService := totalWork / float64(multiJobs) / float64(p)

	models := multitree.DefaultArrivalModels()
	loads := multiLoads()
	policies := multiPolicies()

	// The cell grid, in row order. Arrival times depend on (model, load)
	// only, so every policy faces the identical stream.
	type cell struct {
		pol   multitree.Policy
		model multitree.ArrivalModel
		load  float64
		res   *multitree.Result
		err   error
	}
	var cells []*cell
	for _, pol := range policies {
		for _, model := range models {
			for _, load := range loads {
				cells = append(cells, &cell{pol: pol, model: model, load: load})
			}
		}
	}
	eng := cfg.Engine()
	eng.fanOut(len(cells), func(i int) {
		c := cells[i]
		meanGap := meanService / c.load
		times := c.model.Times(cfg.Seed^0x6d756c7469, multiJobs, meanGap) // "multi" tag keeps the stream off other seeds
		specs := slices.Clone(corpus)
		for k := range specs {
			specs[k].Arrival = times[k]
		}
		c.res, c.err = multitree.Run(specs, &multitree.Options{Procs: p, Mem: mem, Policy: c.pol})
	})

	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("multi: %s/%s load %g: %w", c.pol.Name(), c.model.Name, c.load, c.err)
		}
		m := c.res.Metrics(p, mem, 0)
		t.Add(c.pol.Name(), c.model.Name, c.load, m.Jobs,
			m.Response.Mean, m.Response.D9, m.BSLD.Mean, m.BSLD.Max,
			m.Utilization, m.AvgQueue, m.MaxQueue, m.PeakReservedFraction)
	}
	cfg.logf("multi: %d cells (%d policies × %d arrivals × %d loads)",
		len(cells), len(policies), len(models), len(loads))
	return t, nil
}
