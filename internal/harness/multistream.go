package harness

import (
	"fmt"

	"repro/internal/multitree"
)

// The multi_stream experiment: the raw-speed stream tier at harness
// scale. Where `multi` sweeps policy × load × arrival over a small
// fixed corpus, multi_stream drives seeded mixed-size MakeStream
// corpora — log-spaced size rungs, random/chain/star shapes, Poisson
// arrivals with simultaneous bursts — through multitree.Run and
// tabulates throughput (jobs/sec of simulated work per second of
// simulated time is meaningless here; the columns are the stream
// metrics: response, slowdown, utilization, queue depth). Cells are
// independent (policy × load), evaluated on the Config's worker pool;
// rows are in grid order, so serial and parallel runs are
// byte-identical — the determinism golden test iterates every
// registered experiment and covers this one automatically.

// multiStreamLoads keeps the harness cells fast: one under- and one
// critically-loaded stream per policy.
func multiStreamLoads() []float64 { return []float64{0.7, 1.2} }

// multiStreamStudy implements the `multi_stream` experiment.
func multiStreamStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "multi_stream",
		Title: "stream tier: mixed-size job stream (log-spaced rungs, burst arrivals) per policy × load",
		Header: []string{"policy", "load", "jobs", "nodes",
			"resp_mean", "bsld_mean", "bsld_max",
			"util", "avg_queue", "max_queue", "peak_mem_frac"}}
	p := cfg.procs()

	policies := multiPolicies()
	loads := multiStreamLoads()

	// One corpus per load, built deterministically from the Config seed:
	// arrival times depend on the load, and every policy's cell at that
	// load reads the same specs, so all policies face the identical
	// stream.
	type stream struct {
		specs []multitree.JobSpec
		info  *multitree.StreamInfo
	}
	streams := make([]stream, len(loads))
	for li, load := range loads {
		streams[li].specs, streams[li].info = multitree.MakeStream(&multitree.StreamOptions{
			Seed: cfg.Seed, Jobs: 60, MinNodes: 40, MaxNodes: 800, Rungs: 5,
			Procs: p, Load: load, BurstEvery: 8, BurstSize: 4,
		})
	}

	type cell struct {
		pol  multitree.Policy
		load float64
		*stream
		res *multitree.Result
		err error
	}
	var cells []*cell
	for _, pol := range policies {
		for li, load := range loads {
			cells = append(cells, &cell{pol: pol, load: load, stream: &streams[li]})
		}
	}
	eng := cfg.Engine()
	eng.fanOut(len(cells), func(i int) {
		c := cells[i]
		c.res, c.err = multitree.Run(c.specs, &multitree.Options{Procs: p, Mem: c.info.Mem, Policy: c.pol})
	})

	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("multi_stream: %s load %g: %w", c.pol.Name(), c.load, c.err)
		}
		m := c.res.Metrics(p, c.info.Mem, 0)
		t.Add(c.pol.Name(), c.load, m.Jobs, c.info.TotalNodes,
			m.Response.Mean, m.BSLD.Mean, m.BSLD.Max,
			m.Utilization, m.AvgQueue, m.MaxQueue, m.PeakReservedFraction)
	}
	cfg.logf("multi_stream: %d cells (%d policies × %d loads)", len(cells), len(policies), len(loads))
	return t, nil
}
