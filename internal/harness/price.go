package harness

import (
	"fmt"
	"math"

	"repro/internal/order"
	"repro/internal/stats"
)

// priceStudy quantifies the price of the memory bound: the ratio between
// MemBooking's makespan at a given normalised bound and its makespan
// with unbounded memory (same trees, same orders, CP execution
// priority). A ratio of 1 means the bound is free; the experiment shows
// where, on each corpus, memory stops being the binding constraint —
// context for the paper's observation that MemBooking gets within ≈10%
// of the lower bound by bound 3. The bounded cells are Figures 8 and
// 14's memPO/CP column, so after those figures only the unbounded
// reference (factor +Inf) is simulated.
func priceStudy(cfg *Config) (*Table, error) {
	t := &Table{ID: "price",
		Title:  "price of the memory bound: makespan vs unbounded-memory makespan",
		Header: []string{"corpus", "mem_factor", "slowdown_mean", "slowdown_median", "slowdown_max"}}
	p := cfg.procs()
	factors := append([]float64{math.Inf(1)}, cfg.factors()...)
	type corpus struct {
		name  string
		prep  []prepared
		cells [][]*outcome // [instance][factor], factors[0] the reference
	}
	corpora := []*corpus{
		{name: "assembly", prep: cfg.prepare(cfg.assembly())},
		{name: "synthetic", prep: cfg.prepare(cfg.synthetic())},
	}
	pl := cfg.plan()
	for _, c := range corpora {
		for _, pr := range c.prep {
			eo, err := cfg.Engine().orderByName(pr.inst.Tree, order.NameCP)
			if err != nil {
				return nil, err
			}
			row := make([]*outcome, len(factors))
			for fi, factor := range factors {
				row[fi] = pl.want(pr, HeurMemBooking, p, factor, pr.ao, eo, false, draw{})
			}
			c.cells = append(c.cells, row)
		}
	}
	if err := pl.run(); err != nil {
		return nil, err
	}
	for _, c := range corpora {
		for i, pr := range c.prep {
			for fi, out := range c.cells[i] {
				if !out.ok {
					return nil, fmt.Errorf("price: %s on %s did not complete at factor %g", HeurMemBooking, pr.inst.Name, factors[fi])
				}
			}
		}
		for fi := 1; fi < len(factors); fi++ {
			var ratios []float64
			for i := range c.prep {
				ref, out := c.cells[i][0], c.cells[i][fi]
				if ref.makespan > 0 {
					ratios = append(ratios, out.makespan/ref.makespan)
				}
			}
			sum := stats.Summarize(ratios)
			t.Add(c.name, factors[fi], sum.Mean, sum.Median, sum.Max)
		}
		cfg.logf("price: %s done", c.name)
	}
	return t, nil
}
