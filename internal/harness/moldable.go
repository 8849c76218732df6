package harness

import (
	"fmt"

	"repro/internal/core"
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
	for _, factor := range cfg.factors() {
		var rigidVals, moldVals, speedups, wides []float64
		maxWidth := 0
		for _, pr := range prep {
			m := factor * pr.peak
			prof := moldable.DefaultProfile(pr.inst.Tree)
			rigid, err := core.NewMemBooking(pr.inst.Tree, m, pr.ao, pr.ao)
			if err != nil {
				return nil, err
			}
			rres, err := sim.Run(pr.inst.Tree, p, rigid, &sim.Options{CheckMemory: true, Bound: m})
			if err != nil {
				return nil, fmt.Errorf("rigid on %s: %w", pr.inst.Name, err)
			}
			ms, err := moldable.NewMemBookingMoldable(pr.inst.Tree, m, pr.ao, pr.ao, prof, p)
			if err != nil {
				return nil, err
			}
			mres, err := sim.Run(pr.inst.Tree, p, ms, &sim.Options{CheckMemory: true, Bound: m})
			if err != nil {
				return nil, fmt.Errorf("moldable on %s: %w", pr.inst.Name, err)
			}
			rigidVals = append(rigidVals, cfg.normalize(pr.inst.Tree, p, m, rres.Makespan))
			moldVals = append(moldVals, cfg.normalize(pr.inst.Tree, p, m, mres.Makespan))
			if mres.Makespan > 0 {
				speedups = append(speedups, rres.Makespan/mres.Makespan)
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
