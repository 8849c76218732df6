package harness

import (
	"fmt"
	"math"

	"repro/internal/perturb"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The robust experiment: the paper argues MemBooking is a *dynamic*
// scheduler whose decisions need only the tree shape and data sizes —
// task durations may be unknown until tasks finish. Every other
// experiment feeds the schedulers exact deterministic durations, so
// that claim is never exercised. Here each instance is realised under
// the duration-perturbation models of internal/perturb (lognormal and
// uniform multiplicative noise, heavy-tail stragglers, a bimodal
// fast/slow split, zero-duration degenerates), the schedulers keep
// computing orders, bookings and bounds from the *nominal* tree, and
// the simulator executes the perturbed times. Reported per (model,
// memory factor, heuristic): the fraction of trees completed, the
// distribution of the makespan degradation against the same
// scheduler's nominal run, and the fraction of completed runs whose
// memory stayed within the booked/bound envelope (Theorem 1 predicts
// 1.0 for MemBooking at every factor ≥ 1, independent of durations).

// robustFactors are the normalised memory bounds of the robust sweep: a
// deliberate subset of the default factor grid so the nominal
// denominators are shared with the fig2/fig10 cells.
func robustFactors() []float64 { return []float64{1, 2, 5} }

// robustStudy implements the `robust` experiment over both corpora.
func robustStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "robust",
		Title: "makespan robustness under duration uncertainty (nominal bookings, perturbed realisations)",
		Header: []string{"model", "mem_factor", "heuristic", "completed_fraction",
			"slowdown_mean", "slowdown_d9", "slowdown_max", "mem_safe_fraction"}}
	insts := append(append([]workload.Instance{}, cfg.assembly()...), cfg.synthetic()...)
	prep := cfg.prepare(insts)
	p := cfg.procs()
	models := perturb.DefaultModels()
	factors := robustFactors()

	// The nominal denominators, then per model one draw per instance,
	// derived from the Config seed and content keys only — two
	// independently-built Configs with the same seed realise identical
	// perturbations. perturbed[model] is indexed like nominal.
	pl := cfg.plan()
	nominal := pl.block(prep, AllHeuristics, p, factors, false)
	perturbed := make([][][][]*outcome, len(models))
	for mi, m := range models {
		draws := make([]draw, len(prep))
		for i, pr := range prep {
			draws[i] = draw{m.Name, m.Factors(pr.inst.Tree.Len(), perturb.Seed(cfg.Seed, m, pr.inst.Name))}
		}
		perturbed[mi] = make([][][]*outcome, len(factors))
		for fi, factor := range factors {
			perturbed[mi][fi] = make([][]*outcome, len(AllHeuristics))
			for hi, heur := range AllHeuristics {
				for i, pr := range prep {
					perturbed[mi][fi][hi] = append(perturbed[mi][fi][hi],
						pl.want(pr, heur, p, factor, pr.ao, pr.ao, false, draws[i]))
				}
			}
		}
	}
	if err := pl.run(); err != nil {
		return nil, fmt.Errorf("robust: %w", err)
	}

	for mi, m := range models {
		for fi, factor := range factors {
			for hi, heur := range AllHeuristics {
				var slow []float64
				done, safe := 0, 0
				for i, pr := range prep {
					out, nom := perturbed[mi][fi][hi][i], nominal[fi][hi][i]
					if !out.ok {
						continue
					}
					done++
					bound := factor * pr.peak
					eps := 1e-9 * (1 + bound)
					if out.peakMem <= out.booked+eps && out.booked <= bound+eps {
						safe++
					}
					if nom.ok && nom.makespan > 0 {
						slow = append(slow, out.makespan/nom.makespan)
					}
				}
				s := stats.Summarize(slow)
				frac := float64(done) / float64(len(prep))
				// With zero completions there is no memory-safety evidence
				// to report; NaN keeps the column honest (a default of 1.0
				// would assert safety no run witnessed).
				safeFrac := math.NaN()
				if done > 0 {
					safeFrac = float64(safe) / float64(done)
				}
				t.Rows = append(t.Rows, []string{
					m.Name, fmt.Sprintf("%.4g", factor), heur,
					fmt.Sprintf("%.3f", frac),
					fmt.Sprintf("%.4g", s.Mean), fmt.Sprintf("%.4g", s.D9),
					fmt.Sprintf("%.4g", s.Max),
					fmt.Sprintf("%.3f", safeFrac)})
			}
		}
		cfg.logf("robust: %s done (%d/%d models)", m.Name, mi+1, len(models))
	}
	return t, nil
}
