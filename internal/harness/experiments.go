package harness

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Every sweep below runs in two passes over the same loop structure:
// the first plans the experiment's simulation cells into the Config's
// sweep engine (which deduplicates them against everything already
// computed and evaluates the misses on its worker pool), the second
// reads the memoized outcomes back in deterministic order to assemble
// the table. See sweep.go.

// makespanSweep implements Figures 2 and 10: average normalised makespan
// of the three heuristics as a function of the normalised memory bound.
// Following the paper, a heuristic's average is only reported when it
// scheduled at least 95% of the trees within the bound.
func makespanSweep(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"mem_factor", "heuristic", "norm_makespan_mean", "completed_fraction", "trees"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, factor := range cfg.factors() {
		for _, heur := range AllHeuristics {
			for _, pr := range prep {
				pl.want(pr, heur, p, factor, pr.ao, pr.ao, false)
			}
		}
	}
	pl.run()
	for _, factor := range cfg.factors() {
		for _, heur := range AllHeuristics {
			var vals []float64
			done := 0
			for _, pr := range prep {
				m := factor * pr.peak
				out, err := pl.get(pr, heur, p, factor, pr.ao, pr.ao)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", heur, pr.inst.Name, err)
				}
				if !out.ok {
					continue
				}
				done++
				vals = append(vals, cfg.normalize(pr.inst.Tree, p, m, out.makespan))
			}
			frac := float64(done) / float64(len(prep))
			mean := "NA"
			if frac >= 0.95 {
				mean = fmt.Sprintf("%.4g", stats.Mean(vals))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.4g", factor), heur, mean,
				fmt.Sprintf("%.3f", frac), fmt.Sprint(len(prep))})
		}
		cfg.logf("%s: factor %.3g done", id, factor)
	}
	return t, nil
}

// speedupSweep implements Figures 3 and 11: the distribution of the
// speedup of MemBooking over Activation per memory bound (mean, median,
// first/ninth decile, extremes).
func speedupSweep(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"mem_factor", "speedup_mean", "speedup_median", "d1", "d9", "min", "max", "pairs"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, factor := range cfg.factors() {
		for _, pr := range prep {
			pl.want(pr, HeurActivation, p, factor, pr.ao, pr.ao, false)
			pl.want(pr, HeurMemBooking, p, factor, pr.ao, pr.ao, false)
		}
	}
	pl.run()
	for _, factor := range cfg.factors() {
		var sp []float64
		for _, pr := range prep {
			a, err := pl.get(pr, HeurActivation, p, factor, pr.ao, pr.ao)
			if err != nil {
				return nil, err
			}
			b, err := pl.get(pr, HeurMemBooking, p, factor, pr.ao, pr.ao)
			if err != nil {
				return nil, err
			}
			if a.ok && b.ok && b.makespan > 0 {
				sp = append(sp, a.makespan/b.makespan)
			}
		}
		s := stats.Summarize(sp)
		t.Add(factor, s.Mean, s.Median, s.D1, s.D9, s.Min, s.Max, s.N)
		cfg.logf("%s: factor %.3g done", id, factor)
	}
	return t, nil
}

// memFractionSweep implements Figures 4 and 12: the mean fraction of the
// available memory actually used by each heuristic.
func memFractionSweep(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"mem_factor", "heuristic", "mem_used_fraction_mean", "booked_fraction_mean", "completed_fraction"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, factor := range cfg.factors() {
		for _, heur := range AllHeuristics {
			for _, pr := range prep {
				pl.want(pr, heur, p, factor, pr.ao, pr.ao, false)
			}
		}
	}
	pl.run()
	for _, factor := range cfg.factors() {
		for _, heur := range AllHeuristics {
			var used, booked []float64
			done := 0
			for _, pr := range prep {
				m := factor * pr.peak
				out, err := pl.get(pr, heur, p, factor, pr.ao, pr.ao)
				if err != nil {
					return nil, err
				}
				if !out.ok {
					continue
				}
				done++
				used = append(used, out.peakMem/m)
				booked = append(booked, out.booked/m)
			}
			t.Add(factor, heur, stats.Mean(used), stats.Mean(booked),
				float64(done)/float64(len(prep)))
		}
	}
	return t, nil
}

// schedTimeBySize implements Figures 5 and 13: wall-clock scheduling time
// per tree against tree size, at normalised memory bound 2.
func schedTimeBySize(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "nodes", "height", "heuristic", "sched_seconds"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, pr := range prep {
		for _, heur := range AllHeuristics {
			pl.want(pr, heur, p, 2, pr.ao, pr.ao, true)
		}
	}
	pl.run()
	for _, pr := range prep {
		st := pr.inst.Tree.ComputeStats()
		for _, heur := range AllHeuristics {
			out, err := pl.get(pr, heur, p, 2, pr.ao, pr.ao)
			if err != nil {
				return nil, err
			}
			if !out.ok {
				continue
			}
			t.Add(pr.inst.Name, st.Nodes, st.Height, heur, out.schedTime)
		}
	}
	return t, nil
}

// schedTimePerNode implements Figure 6: average scheduling time per node
// against tree height (assembly trees).
func schedTimePerNode(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "height", "nodes", "heuristic", "sched_seconds_per_node"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, pr := range prep {
		for _, heur := range AllHeuristics {
			pl.want(pr, heur, p, 2, pr.ao, pr.ao, true)
		}
	}
	pl.run()
	for _, pr := range prep {
		st := pr.inst.Tree.ComputeStats()
		for _, heur := range AllHeuristics {
			out, err := pl.get(pr, heur, p, 2, pr.ao, pr.ao)
			if err != nil {
				return nil, err
			}
			if !out.ok {
				continue
			}
			t.Add(pr.inst.Name, st.Height, st.Nodes, heur,
				out.schedTime.Seconds()/float64(st.Nodes))
		}
	}
	return t, nil
}

// speedupByHeight implements Figure 7: per-tree speedup of MemBooking
// over Activation at normalised memory bound 2, against tree height.
func speedupByHeight(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "height", "nodes", "speedup"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	for _, pr := range prep {
		pl.want(pr, HeurActivation, p, 2, pr.ao, pr.ao, false)
		pl.want(pr, HeurMemBooking, p, 2, pr.ao, pr.ao, false)
	}
	pl.run()
	for _, pr := range prep {
		a, err := pl.get(pr, HeurActivation, p, 2, pr.ao, pr.ao)
		if err != nil {
			return nil, err
		}
		b, err := pl.get(pr, HeurMemBooking, p, 2, pr.ao, pr.ao)
		if err != nil {
			return nil, err
		}
		if !a.ok || !b.ok {
			continue
		}
		st := pr.inst.Tree.ComputeStats()
		t.Add(pr.inst.Name, st.Height, st.Nodes, a.makespan/b.makespan)
	}
	return t, nil
}

// orderCombos are the activation/execution order pairs of Figures 8/14.
var orderCombos = [][2]string{
	{order.NameMemPO, order.NameMemPO},
	{order.NameMemPO, order.NameCP},
	{order.NameOptSeq, order.NameCP},
	{order.NameOptSeq, order.NameOptSeq},
	{order.NamePerfPO, order.NameCP},
	{order.NamePerfPO, order.NamePerfPO},
}

// orderStudy implements Figures 8 and 14: MemBooking's normalised
// makespan under different activation and execution orders.
func orderStudy(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"mem_factor", "ao/eo", "norm_makespan_mean", "completed_fraction"}}
	p := cfg.procs()
	prep := cfg.prepare(insts)
	eng := cfg.Engine()
	// All orders per tree, memoized in the engine across experiments.
	cache := make([]map[string]*order.Order, len(prep))
	for i, pr := range prep {
		cache[i] = map[string]*order.Order{order.NameMemPO: pr.ao}
		for _, name := range []string{order.NameCP, order.NameOptSeq, order.NamePerfPO} {
			o, err := eng.orderByName(pr.inst.Tree, name)
			if err != nil {
				return nil, err
			}
			cache[i][name] = o
		}
	}
	pl := cfg.plan()
	for _, factor := range cfg.factors() {
		for _, combo := range orderCombos {
			for i, pr := range prep {
				pl.want(pr, HeurMemBooking, p, factor, cache[i][combo[0]], cache[i][combo[1]], false)
			}
		}
	}
	pl.run()
	for _, factor := range cfg.factors() {
		for _, combo := range orderCombos {
			var vals []float64
			done := 0
			for i, pr := range prep {
				m := factor * pr.peak
				out, err := pl.get(pr, HeurMemBooking, p, factor, cache[i][combo[0]], cache[i][combo[1]])
				if err != nil {
					return nil, err
				}
				if !out.ok {
					continue
				}
				done++
				vals = append(vals, cfg.normalize(pr.inst.Tree, p, m, out.makespan))
			}
			frac := float64(done) / float64(len(prep))
			mean := "NA"
			if frac >= 0.95 {
				mean = fmt.Sprintf("%.4g", stats.Mean(vals))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.4g", factor), combo[0] + "/" + combo[1], mean,
				fmt.Sprintf("%.3f", frac)})
		}
		cfg.logf("%s: factor %.3g done", id, factor)
	}
	return t, nil
}

// procSweep implements Figures 9 and 15: the makespan sweep repeated for
// p ∈ {2, 4, 8, 16, 32}.
func procSweep(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"procs", "mem_factor", "heuristic", "norm_makespan_mean", "completed_fraction"}}
	prep := cfg.prepare(insts)
	procsList := []int{2, 4, 8, 16, 32}
	pl := cfg.plan()
	for _, p := range procsList {
		for _, factor := range cfg.factors() {
			for _, heur := range AllHeuristics {
				for _, pr := range prep {
					pl.want(pr, heur, p, factor, pr.ao, pr.ao, false)
				}
			}
		}
	}
	pl.run()
	for _, p := range procsList {
		for _, factor := range cfg.factors() {
			for _, heur := range AllHeuristics {
				var vals []float64
				done := 0
				for _, pr := range prep {
					m := factor * pr.peak
					out, err := pl.get(pr, heur, p, factor, pr.ao, pr.ao)
					if err != nil {
						return nil, err
					}
					if !out.ok {
						continue
					}
					done++
					vals = append(vals, cfg.normalize(pr.inst.Tree, p, m, out.makespan))
				}
				frac := float64(done) / float64(len(prep))
				mean := "NA"
				if frac >= 0.95 {
					mean = fmt.Sprintf("%.4g", stats.Mean(vals))
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(p), fmt.Sprintf("%.4g", factor), heur, mean,
					fmt.Sprintf("%.3f", frac)})
			}
		}
		cfg.logf("%s: p=%d done", id, p)
	}
	return t, nil
}

// lbStats implements the §6 statistics: how often and by how much the new
// memory-aware lower bound improves on the classical bound, per corpus.
// The paper reports 22% of cases with +46% on assembly trees and 33% with
// +37% on synthetic trees at p = 8.
func lbStats(cfg *Config) (*Table, error) {
	t := &Table{ID: "lb", Title: "memory-aware lower bound improvement (§6)",
		Header: []string{"corpus", "procs", "improved_fraction", "avg_improvement", "cases"}}
	for _, corpus := range []struct {
		name  string
		insts []workload.Instance
	}{{"assembly", cfg.assembly()}, {"synthetic", cfg.synthetic()}} {
		prep := cfg.prepare(corpus.insts)
		for _, p := range []int{2, 8, 32} {
			improved, total := 0, 0
			var gains []float64
			for _, pr := range prep {
				classical := bounds.Classical(pr.inst.Tree, p)
				for _, factor := range cfg.factors() {
					m := factor * pr.peak
					mem, err := bounds.Memory(pr.inst.Tree, m)
					if err != nil {
						return nil, err
					}
					total++
					if mem > classical {
						improved++
						gains = append(gains, mem/classical-1)
					}
				}
			}
			avg := 0.0
			if len(gains) > 0 {
				avg = stats.Mean(gains)
			}
			t.Add(corpus.name, p, float64(improved)/float64(total), avg, total)
		}
	}
	return t, nil
}

// redTreeFailures implements the §7.4 observation: below a normalised
// bound of ≈1.4, MemBookingRedTree cannot schedule a large fraction of
// the synthetic trees.
func redTreeFailures(cfg *Config) (*Table, error) {
	t := &Table{ID: "redfail", Title: "RedTree completion failures on synthetic trees (§7.4)",
		Header: []string{"mem_factor", "heuristic", "failed_fraction"}}
	prep := cfg.prepare(cfg.synthetic())
	p := cfg.procs()
	factors := []float64{1, 1.1, 1.2, 1.3, 1.4, 1.6, 2, 3}
	pl := cfg.plan()
	for _, factor := range factors {
		for _, heur := range AllHeuristics {
			for _, pr := range prep {
				pl.want(pr, heur, p, factor, pr.ao, pr.ao, false)
			}
		}
	}
	pl.run()
	for _, factor := range factors {
		for _, heur := range AllHeuristics {
			failed := 0
			for _, pr := range prep {
				out, err := pl.get(pr, heur, p, factor, pr.ao, pr.ao)
				if err != nil {
					return nil, err
				}
				if !out.ok {
					failed++
				}
			}
			t.Add(factor, heur, float64(failed)/float64(len(prep)))
		}
	}
	return t, nil
}

// avgMemStudy implements Appendix A: the average-memory-optimal postorder
// versus the peak-memory postorder, reporting the mean ratio of average
// memory use and of peak memory across the synthetic corpus.
func avgMemStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "avgmem", Title: "average-memory postorder (Appendix A)",
		Header: []string{"tree", "avgmem_memPO", "avgmem_avgPO", "ratio", "peak_memPO", "peak_avgPO"}}
	prep := cfg.prepare(cfg.synthetic())
	for _, pr := range prep {
		memPO, peakPO := pr.ao, pr.peak
		avgPO := order.AvgMemPostOrder(pr.inst.Tree)
		a1, err := order.AvgMemory(pr.inst.Tree, memPO.Seq)
		if err != nil {
			return nil, err
		}
		a2, err := order.AvgMemory(pr.inst.Tree, avgPO.Seq)
		if err != nil {
			return nil, err
		}
		p2, err := order.PeakMemory(pr.inst.Tree, avgPO.Seq)
		if err != nil {
			return nil, err
		}
		ratio := math.NaN()
		if a1 > 0 {
			ratio = a2 / a1
		}
		t.Add(pr.inst.Name, a1, a2, ratio, peakPO, p2)
	}
	return t, nil
}

// memProfile is an extra diagnostic (not a paper figure): the memory
// profile over time of the three heuristics on one tree, for plotting.
func memProfile(cfg *Config) (*Table, error) {
	t := &Table{ID: "profile", Title: "memory usage over time on one assembly tree",
		Header: []string{"heuristic", "time", "used", "booked"}}
	insts := cfg.assembly()
	pr := cfg.prepare(insts[:1])[0]
	m := 2 * pr.peak
	for _, heur := range AllHeuristics {
		heur := heur
		var err error
		var rows [][]string
		opts := &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true,
			MemTrace: func(at, used, booked float64) {
				rows = append(rows, []string{heur,
					fmt.Sprintf("%.6g", at), fmt.Sprintf("%.6g", used), fmt.Sprintf("%.6g", booked)})
			}}
		switch heur {
		case HeurActivation:
			sch, e := baseline.NewActivation(pr.inst.Tree, m, pr.ao, pr.ao)
			if e == nil {
				_, err = sim.Run(pr.inst.Tree, cfg.procs(), sch, opts)
			}
		case HeurRedTree:
			sch, e := baseline.NewMemBookingRedTree(pr.inst.Tree, m, pr.ao, pr.ao)
			if e == nil {
				_, err = sim.Run(sch.Tree(), cfg.procs(), sch, opts)
			}
		case HeurMemBooking:
			sch, e := core.NewMemBooking(pr.inst.Tree, m, pr.ao, pr.ao)
			if e == nil {
				_, err = sim.Run(pr.inst.Tree, cfg.procs(), sch, opts)
			}
		}
		if err != nil {
			var dead *core.ErrDeadlock
			if !errors.As(err, &dead) {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}
