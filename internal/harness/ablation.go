package harness

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// ablationStudy quantifies the two design choices behind MemBooking
// (DESIGN.md §3): ALAP versus eager memory dispatch, and the lazy
// BookedBySubtree initialisation of §5.1. For each memory factor it
// reports the mean normalised makespan and completion rate of each
// variant on the assembly corpus, plus the scheduler overhead (where the
// lazy optimisation is the only difference).
func ablationStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "ablation",
		Title: "MemBooking design ablations: dispatch policy and lazy BookedBySubtree",
		Header: []string{"mem_factor", "variant", "norm_makespan_mean",
			"completed_fraction", "sched_seconds_total"}}
	prep := cfg.prepare(cfg.assembly())
	p := cfg.procs()
	variants := []struct {
		name      string
		dispatch  core.DispatchPolicy
		recompute bool
	}{
		{"ALAP+lazy (paper)", core.DispatchALAP, false},
		{"ALAP+recompute", core.DispatchALAP, true},
		{"Eager+lazy", core.DispatchEager, false},
	}
	for _, factor := range cfg.factors() {
		for _, v := range variants {
			var vals []float64
			total := 0.0
			for _, pr := range prep {
				m := factor * pr.peak
				s, err := core.NewMemBooking(pr.inst.Tree, m, pr.ao, pr.ao)
				if err != nil {
					return nil, err
				}
				s.SetDispatch(v.dispatch)
				s.SetRecomputeBBS(v.recompute)
				res, err := sim.Run(pr.inst.Tree, p, s, cfg.simOpts(m, true))
				if err != nil {
					var dead *core.ErrDeadlock
					if errors.As(err, &dead) {
						continue
					}
					return nil, fmt.Errorf("ablation %s on %s: %w", v.name, pr.inst.Name, err)
				}
				vals = append(vals, cfg.normalize(pr.inst.Tree, p, m, res.Makespan))
				total += res.SchedTime.Seconds()
			}
			mean, frac := meanIfCompleted(vals, len(prep))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.4g", factor), v.name, mean, frac, fmt.Sprintf("%.6g", total)})
		}
	}
	return t, nil
}
