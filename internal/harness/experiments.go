package harness

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Every engine-backed sweep below plans its cells into the Config's
// sweep engine (which deduplicates them against everything already
// computed and evaluates the misses on its worker pool) and gets back
// the handles the outcomes are written to; after run() it walks its row
// layout once, reading through the handles. See sweep.go.

// meanIfCompleted is the paper's reporting rule (§7): a heuristic's
// average is only reported when it scheduled at least 95% of the trees
// within the bound. vals holds one value per completed tree.
func meanIfCompleted(vals []float64, trees int) (mean, completed string) {
	frac := float64(len(vals)) / float64(trees)
	mean = "NA"
	if frac >= 0.95 {
		mean = fmt.Sprintf("%.4g", stats.Mean(vals))
	}
	return mean, fmt.Sprintf("%.3f", frac)
}

// normalized returns the normalised makespans of the completed cells of
// one column (cells[i] is prep[i] on p processors at the given factor).
func (c *Config) normalized(prep []prepared, cells []*outcome, p int, factor float64) []float64 {
	var vals []float64
	for i, pr := range prep {
		if out := cells[i]; out.ok {
			vals = append(vals, c.normalize(pr.inst.Tree, p, factor*pr.peak, out.makespan))
		}
	}
	return vals
}

// makespanSweep implements Figures 2 and 10: average normalised makespan
// of the three heuristics as a function of the normalised memory bound.
func makespanSweep(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"mem_factor", "heuristic", "norm_makespan_mean", "completed_fraction", "trees"}}
	prep := cfg.prepare(insts)
	p := cfg.procs()
	pl := cfg.plan()
	blk := pl.block(prep, AllHeuristics, p, cfg.factors(), false)
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range cfg.factors() {
		for hi, heur := range AllHeuristics {
			mean, frac := meanIfCompleted(cfg.normalized(prep, blk[fi][hi], p, factor), len(prep))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.4g", factor), heur, mean, frac, fmt.Sprint(len(prep))})
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
	pl := cfg.plan()
	blk := pl.block(prep, []string{HeurActivation, HeurMemBooking}, cfg.procs(), cfg.factors(), false)
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range cfg.factors() {
		var sp []float64
		for i := range prep {
			a, b := blk[fi][0][i], blk[fi][1][i]
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
	pl := cfg.plan()
	blk := pl.block(prep, AllHeuristics, cfg.procs(), cfg.factors(), false)
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range cfg.factors() {
		for hi, heur := range AllHeuristics {
			var used, booked []float64
			for i, pr := range prep {
				if out := blk[fi][hi][i]; out.ok {
					m := factor * pr.peak
					used = append(used, out.peakMem/m)
					booked = append(booked, out.booked/m)
				}
			}
			t.Add(factor, heur, stats.Mean(used), stats.Mean(booked),
				float64(len(used))/float64(len(prep)))
		}
	}
	return t, nil
}

// schedTimeSweep is the body of the scheduling-time figures: every
// heuristic on every tree at normalised memory bound 2, timed; row
// formats one completed cell.
func schedTimeSweep(t *Table, insts []workload.Instance, cfg *Config,
	row func(name string, st tree.Stats, heur string, sched time.Duration)) (*Table, error) {
	prep := cfg.prepare(insts)
	pl := cfg.plan()
	cells := pl.block(prep, AllHeuristics, cfg.procs(), []float64{2}, true)[0]
	if err := pl.run(); err != nil {
		return nil, err
	}
	for i, pr := range prep {
		st := pr.inst.Tree.ComputeStats()
		for hi, heur := range AllHeuristics {
			if out := cells[hi][i]; out.ok {
				row(pr.inst.Name, st, heur, out.schedTime)
			}
		}
	}
	return t, nil
}

// schedTimeBySize implements Figures 5 and 13: wall-clock scheduling time
// per tree against tree size, at normalised memory bound 2.
func schedTimeBySize(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "nodes", "height", "heuristic", "sched_seconds"}}
	return schedTimeSweep(t, insts, cfg, func(name string, st tree.Stats, heur string, sched time.Duration) {
		t.Add(name, st.Nodes, st.Height, heur, sched)
	})
}

// schedTimePerNode implements Figure 6: average scheduling time per node
// against tree height (assembly trees).
func schedTimePerNode(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "height", "nodes", "heuristic", "sched_seconds_per_node"}}
	return schedTimeSweep(t, insts, cfg, func(name string, st tree.Stats, heur string, sched time.Duration) {
		t.Add(name, st.Height, st.Nodes, heur, sched.Seconds()/float64(st.Nodes))
	})
}

// speedupByHeight implements Figure 7: per-tree speedup of MemBooking
// over Activation at normalised memory bound 2, against tree height.
func speedupByHeight(id, title string, insts []workload.Instance, cfg *Config) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: []string{"tree", "height", "nodes", "speedup"}}
	prep := cfg.prepare(insts)
	pl := cfg.plan()
	cells := pl.block(prep, []string{HeurActivation, HeurMemBooking}, cfg.procs(), []float64{2}, false)[0]
	if err := pl.run(); err != nil {
		return nil, err
	}
	for i, pr := range prep {
		a, b := cells[0][i], cells[1][i]
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
	pl := cfg.plan()
	// cells[factor][combo][instance]; the named orders are memoized per
	// tree in the engine across experiments.
	cells := make([][][]*outcome, len(cfg.factors()))
	for fi := range cells {
		cells[fi] = make([][]*outcome, len(orderCombos))
	}
	for ci, combo := range orderCombos {
		for _, pr := range prep {
			ao, err := eng.orderByName(pr.inst.Tree, combo[0])
			if err != nil {
				return nil, err
			}
			eo, err := eng.orderByName(pr.inst.Tree, combo[1])
			if err != nil {
				return nil, err
			}
			for fi, factor := range cfg.factors() {
				cells[fi][ci] = append(cells[fi][ci], pl.want(pr, HeurMemBooking, p, factor, ao, eo, false, draw{}))
			}
		}
	}
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range cfg.factors() {
		for ci, combo := range orderCombos {
			mean, frac := meanIfCompleted(cfg.normalized(prep, cells[fi][ci], p, factor), len(prep))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.4g", factor), combo[0] + "/" + combo[1], mean, frac})
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
	blks := make([][][][]*outcome, len(procsList))
	for pi, p := range procsList {
		blks[pi] = pl.block(prep, AllHeuristics, p, cfg.factors(), false)
	}
	if err := pl.run(); err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		for fi, factor := range cfg.factors() {
			for hi, heur := range AllHeuristics {
				mean, frac := meanIfCompleted(cfg.normalized(prep, blks[pi][fi][hi], p, factor), len(prep))
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(p), fmt.Sprintf("%.4g", factor), heur, mean, frac})
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
	factors := []float64{1, 1.1, 1.2, 1.3, 1.4, 1.6, 2, 3}
	pl := cfg.plan()
	blk := pl.block(prep, AllHeuristics, cfg.procs(), factors, false)
	if err := pl.run(); err != nil {
		return nil, err
	}
	for fi, factor := range factors {
		for hi, heur := range AllHeuristics {
			failed := 0
			for _, out := range blk[fi][hi] {
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
	opts := &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true, Trace: &sim.Trace{}}
	for _, heur := range AllHeuristics {
		sch, run, err := baseline.New(heur, pr.inst.Tree, m, pr.ao, pr.ao)
		if err != nil {
			return nil, err
		}
		// A deadlocked run keeps its samples up to the deadlock.
		_, err = sim.Run(run, cfg.procs(), sch, opts)
		var dead *core.ErrDeadlock
		if err != nil && !errors.As(err, &dead) {
			return nil, err
		}
		for _, s := range opts.Trace.Mem {
			t.Rows = append(t.Rows, []string{heur,
				fmt.Sprintf("%.6g", s.Time), fmt.Sprintf("%.6g", s.Used), fmt.Sprintf("%.6g", s.Booked)})
		}
	}
	return t, nil
}
