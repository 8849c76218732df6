package harness

import (
	"fmt"

	"repro/internal/moldable"
	"repro/internal/sim"
	"repro/internal/stats"
)

// moldableStudy evaluates the §8 extension: rigid MemBooking versus
// moldable MemBooking (Amdahl tasks with per-processor workspaces, widths
// granted only when their memory fits) on the assembly corpus. The
// expected trade-off: molding pays off exactly when memory is plentiful
// enough to afford workspaces and the trees have dominant fronts; under
// tight memory the moldable scheduler converges to the rigid one instead
// of failing.
func moldableStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "moldable",
		Title: "rigid vs moldable MemBooking (§8 extension) on assembly trees",
		Header: []string{"mem_factor", "rigid_norm_makespan", "moldable_norm_makespan",
			"moldable_speedup_mean", "wide_tasks_mean", "max_width_max"}}
	prep := cfg.prepare(cfg.assembly())
	p := cfg.procs()
	// The rigid half is Figure 2's MemBooking column: planned through
	// the engine, it is a memo hit whenever fig2 ran on this Config.
	pl := cfg.plan()
	rigid := pl.block(prep, []string{HeurMemBooking}, p, cfg.factors(), false)
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range cfg.factors() {
		var rigidVals, moldVals, speedups, wides []float64
		maxWidth := 0
		for i, pr := range prep {
			m := factor * pr.peak
			rres := rigid[fi][0][i]
			if !rres.ok {
				return nil, fmt.Errorf("rigid on %s: not completed at factor %g", pr.inst.Name, factor)
			}
			ms, err := moldable.NewMemBookingMoldable(pr.inst.Tree, m, pr.ao, pr.ao, moldable.DefaultProfile(pr.inst.Tree), p)
			if err != nil {
				return nil, err
			}
			mres, err := sim.Run(pr.inst.Tree, p, ms, cfg.simOpts(m, false))
			if err != nil {
				return nil, fmt.Errorf("moldable on %s: %w", pr.inst.Name, err)
			}
			rigidVals = append(rigidVals, cfg.normalize(pr.inst.Tree, p, m, rres.makespan))
			moldVals = append(moldVals, cfg.normalize(pr.inst.Tree, p, m, mres.Makespan))
			if mres.Makespan > 0 {
				speedups = append(speedups, rres.makespan/mres.Makespan)
			}
			wides = append(wides, float64(mres.WideTasks))
			if mres.MaxWidth > maxWidth {
				maxWidth = mres.MaxWidth
			}
		}
		t.Add(factor, stats.Mean(rigidVals), stats.Mean(moldVals),
			stats.Mean(speedups), stats.Mean(wides), maxWidth)
		cfg.logf("moldable: factor %.3g done", factor)
	}
	return t, nil
}
