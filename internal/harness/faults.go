package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/multitree"
	"repro/internal/order"
	"repro/internal/workload"
)

// The faults experiment: Theorem 1 is proven for runs in which every
// task finishes, so this study measures what fail-stop faults cost on
// top of the guarantee. A fixed Poisson stream of tree jobs runs on a
// shared pool under every fault model of internal/faults, every
// checkpoint policy of internal/core and two admission heuristics; the
// simulator recovers through checkpoint/restart and retry-with-backoff
// (internal/multitree). The table reports, per cell, the completions
// and retry exhaustions, restart and checkpoint counts, the fraction of
// processor-busy time that never committed (wasted work), and the
// makespan overhead against the fault-free cell of the same
// (checkpoint, policy) pair. Fault schedules are pure functions of
// (model, seed) — every cell builds a fresh Plan from the same seed, so
// all checkpoint policies and heuristics face the identical fault
// history, and serial and parallel sweeps are byte-identical.

// faultJobs is the job corpus size: smallish trees, so a per-attempt
// task-failure probability leaves realistic per-attempt job survival
// (a fault anywhere in a job kills the whole attempt).
const faultJobs = 16

var faultSizes = []int{40, 80, 120}

// faultRetries caps restarts per job; with the DefaultModels rates most
// jobs complete well within it, and the doomed tail shows up in the
// failed column instead of hanging the stream.
const faultRetries = 10

// faultCheckpoints is the compared checkpoint-policy set.
func faultCheckpoints() []core.CheckpointPolicy {
	return []core.CheckpointPolicy{
		core.CheckpointNever{},
		core.CheckpointEvery{K: 16},
		core.CheckpointOnPeak{},
	}
}

// faultPolicies is the compared admission set: strict arrival order and
// EASY backfilling (the no-starvation baseline and the utilisation
// heuristic; the retry path re-queues through whichever is active).
func faultPolicies() []multitree.Policy {
	return []multitree.Policy{multitree.FCFS{}, multitree.EASY{}}
}

// faultsStudy implements the `faults` experiment.
func faultsStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "faults",
		Title: "fail-stop fault tolerance: fault model × checkpoint policy × admission heuristic",
		Header: []string{"policy", "ckpt", "model", "jobs", "failed",
			"restarts", "ckpts", "wasted_frac", "overhead", "util"}}
	p := cfg.procs()

	// One deterministic corpus and arrival stream shared by every cell,
	// so the only variable across cells is (model, checkpoint, policy).
	specs := make([]multitree.JobSpec, faultJobs)
	maxPeak, totalWork := 0.0, 0.0
	for i := range specs {
		sz := faultSizes[i%len(faultSizes)]
		tr := workload.MustSynthetic(workload.NewRNG(cfg.Seed+uint64(i)*999983+uint64(sz)), workload.SyntheticOptions{Nodes: sz})
		ao, peak := order.MinMemPostOrder(tr)
		specs[i] = multitree.JobSpec{Name: fmt.Sprintf("fjob%02d-n%d", i, sz), Tree: tr, AO: ao, Peak: peak}
		maxPeak = max(maxPeak, peak)
		totalWork += tr.TotalWork()
	}
	// Three maximal slices: tight enough that a restarted job really
	// queues behind the admission policy for its slice back.
	mem := 3 * maxPeak
	meanGap := totalWork / float64(faultJobs) / float64(p)                                  // offered load 1
	times := multitree.PoissonArrivals().Times(cfg.Seed^0x6661756c7473, faultJobs, meanGap) // "faults" tag
	for k := range specs {
		specs[k].Arrival = times[k]
	}

	models := faults.DefaultModels()
	ckpts := faultCheckpoints()
	policies := faultPolicies()

	// The cell grid, in row order: model innermost with the fault-free
	// model first, so each (policy, checkpoint) group carries its own
	// overhead denominator.
	type cell struct {
		pol   multitree.Policy
		ck    core.CheckpointPolicy
		model faults.Model
		res   *multitree.Result
		err   error
	}
	var cells []*cell
	for _, pol := range policies {
		for _, ck := range ckpts {
			for _, m := range models {
				cells = append(cells, &cell{pol: pol, ck: ck, model: m})
			}
		}
	}
	eng := cfg.Engine()
	eng.fanOut(len(cells), func(i int) {
		c := cells[i]
		// A Plan is not safe for concurrent use: each cell realises its
		// own from the shared (model, seed) pair, so every cell of one
		// model sees the identical fault schedule.
		fo := &multitree.FaultOptions{
			Plan:       c.model.NewPlan(faults.Seed(cfg.Seed, c.model, "faults")),
			MaxRetries: faultRetries,
			Backoff:    faults.Backoff{Base: 50, Cap: 800, Jitter: 0.2},
			Checkpoint: c.ck,
		}
		c.res, c.err = multitree.Run(specs, &multitree.Options{Procs: p, Mem: mem, Policy: c.pol, Faults: fo})
	})

	perGroup := len(models)
	for i, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("faults: %s/%s/%s: %w", c.pol.Name(), c.ck.Name(), c.model.Name, c.err)
		}
		base := cells[i-i%perGroup] // the group's fault-free cell (model "none" is first)
		overhead := 0.0
		if base.res.Makespan > 0 {
			overhead = c.res.Makespan / base.res.Makespan
		}
		m := c.res.Metrics(p, mem, 0)
		t.Add(c.pol.Name(), c.ck.Name(), c.model.Name, m.Jobs, m.FailedJobs,
			m.Restarts, m.Checkpoints, m.WastedFraction, overhead, m.Utilization)
	}
	cfg.logf("faults: %d cells (%d policies × %d checkpoint policies × %d models)",
		len(cells), len(policies), len(ckpts), len(models))
	return t, nil
}
