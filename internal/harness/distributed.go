package harness

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/stats"
)

// distStudy evaluates the §8 distributed-memory extension: the same
// total processor and memory budget spread over 1, 2 or 4 domains with
// private memories, proportional mapping, and a finite interconnect.
// Expected: more domains shrink the per-domain memory (termination
// failures appear at tight bounds) and cross-domain transfers stretch
// the makespan, while a generous budget keeps the penalty small — the
// trade-off §8 describes for clusters of cores.
func distStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "dist",
		Title: "distributed domains (§8 extension): makespan vs domain count, assembly trees",
		Header: []string{"domains", "mem_factor", "norm_makespan_mean",
			"completed_fraction", "transfer_volume_mean"}}
	prep := cfg.prepare(cfg.assembly())
	totalProcs := cfg.procs()
	for _, nd := range []int{1, 2, 4} {
		procsPer := totalProcs / nd
		if procsPer == 0 {
			procsPer = 1
		}
		for _, factor := range cfg.factors() {
			var vals, vols []float64
			for _, pr := range prep {
				// The total memory budget factor×peak is split evenly.
				memPer := factor * pr.peak / float64(nd)
				plat := distributed.Uniform(nd, procsPer, memPer, 0)
				mapping := distributed.ProportionalMapping(pr.inst.Tree, nd)
				res, err := distributed.Run(pr.inst.Tree, plat, mapping, pr.ao, pr.ao)
				if err != nil {
					var dead *core.ErrDeadlock
					if errors.As(err, &dead) {
						continue
					}
					return nil, fmt.Errorf("dist on %s: %w", pr.inst.Name, err)
				}
				vals = append(vals, cfg.normalize(pr.inst.Tree, totalProcs, factor*pr.peak, res.Makespan))
				vols = append(vols, res.TransferVolume)
			}
			mean, frac := meanIfCompleted(vals, len(prep))
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(nd), fmt.Sprintf("%.4g", factor), mean, frac,
				fmt.Sprintf("%.4g", stats.Mean(vols))})
		}
		cfg.logf("dist: %d domains done", nd)
	}
	return t, nil
}
