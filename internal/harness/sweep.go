package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// This file is the sweep engine: the shared evaluation layer every
// experiment runner goes through. An experiment is a grid of simulation
// cells (instance × heuristic × memory factor, under a pair of orders);
// the engine plans the full set of cells a runner needs, deduplicates
// them against everything already computed for the same Config,
// executes the misses on a worker pool, and memoizes the outcomes so
// that figures sharing cells (fig2/fig3/fig4, fig10/fig11/fig12, …)
// simulate each cell exactly once. Per-instance preparation (the memPO
// activation order and its sequential peak), named orders and the
// normalisation lower bounds are memoized the same way. Workers reuse
// scheduler instances (via their Reset paths) and one sim.Runner each,
// so a cached sweep re-run allocates nothing per cell.

// cellKey identifies one simulation cell. The memory bound is expressed
// as the normalised factor (the bound is factor × the instance's minimal
// peak), and orders by their names, so cells are shared across
// experiments that build the same grid independently. perturb names the
// duration-perturbation realisation executed by the simulator ("" for
// nominal durations): the robust experiment's realisations are a pure
// function of (perturbation model, Config seed, instance), so the model
// name is a content-derived key exactly like the order names. timed
// asks for a SchedTime measurement (Figures 5, 6 and 13): a timed and
// an untimed run of the same cell are two cells.
type cellKey struct {
	tree    *tree.Tree
	heur    string
	procs   int
	factor  float64
	ao, eo  string
	perturb string
	timed   bool
}

// cellEntry is the memoized result of one cell.
type cellEntry struct {
	out outcome
	err error
}

// cellReq asks the engine for one cell. factors, when non-nil, are the
// per-task duration multipliers of the perturbation named by the key:
// the scheduler is still built from the nominal tree with the nominal
// bound (the information asymmetry of the paper's dynamic-scheduling
// claim), only the executed durations change.
type cellReq struct {
	key     cellKey
	ao      *order.Order
	eo      *order.Order
	m       float64 // factor × peak, precomputed by the planner
	factors []float64
	inst    string   // the instance's name, for planner.run's error
	out     *outcome // the planner's handle; EvalAll does not touch it
}

// EngineStats counts the engine's cache behaviour; the exactly-once
// guarantees of the sweep engine are asserted against these counters.
type EngineStats struct {
	// CellsRequested counts cell requests made by experiment runners.
	CellsRequested int
	// CellHits counts requests served from the memo (including requests
	// deduplicated inside a single batch).
	CellHits int
	// CellsComputed counts simulations actually run.
	CellsComputed int
	// PrepRequested / PrepComputed count per-instance preparations
	// (memPO order + sequential peak).
	PrepRequested int
	PrepComputed  int
}

// Engine evaluates simulation cells in parallel and memoizes every
// level of the computation. One Engine is attached to each Config (see
// Config.Engine); all experiments run through the same Config share it.
// Its tree entries, cell memo and counters share one lock. A tree's
// Entry (cache.go, the type the serving layer reuses) holds the
// per-instance levels (preparation, named orders, lower bounds); cells
// holds the cell outcomes. An Engine's public methods are safe for use
// from a single experiment runner at a time (harness.Run is
// sequential); the parallelism lives inside EvalAll.
type Engine struct {
	workers   int
	fakeClock bool

	mu      sync.Mutex
	entries map[*tree.Tree]*Entry
	cells   map[cellKey]*cellEntry
	stats   EngineStats
}

// NewEngine returns an engine running at most workers simulations
// concurrently (workers ≥ 1; 1 means serial). fakeClock substitutes a
// deterministic per-cell clock for the SchedTime measurement, so tests
// can compare timing columns byte-for-byte.
func NewEngine(workers int, fakeClock bool) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{
		workers:   workers,
		fakeClock: fakeClock,
		entries:   make(map[*tree.Tree]*Entry),
		cells:     make(map[cellKey]*cellEntry),
	}
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// entry returns t's entry, creating it on first sight.
func (e *Engine) entry(t *tree.Tree) *Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.entries[t]
	if !ok {
		ent = NewEntry(t)
		e.entries[t] = ent
	}
	return ent
}

// newFakeClock returns a deterministic clock: each call advances one
// microsecond. Engines under fakeClock give every cell its own clock,
// so the measured SchedTime depends only on the cell's event count —
// identical between serial and parallel runs.
func newFakeClock() func() time.Time {
	base := time.Unix(0, 0)
	tick := time.Duration(0)
	return func() time.Time {
		tick += time.Microsecond
		return base.Add(tick)
	}
}

// prepare returns the per-instance artefacts shared by all runs (the
// memPO activation order and its sequential peak), computing misses in
// parallel and memoizing them in each tree's entry for every later
// experiment on the same Config. Goroutines racing on the same uncached
// tree compute it once.
func (e *Engine) prepare(insts []workload.Instance) []prepared {
	out := make([]prepared, len(insts))
	e.fanOut(len(insts), func(i int) {
		pr, computed := e.entry(insts[i].Tree).prepare()
		e.mu.Lock()
		e.stats.PrepRequested++
		if computed {
			e.stats.PrepComputed++
		}
		e.mu.Unlock()
		out[i] = prepared{inst: insts[i], ao: pr.AO, peak: pr.Peak}
	})
	return out
}

// orderByName returns the named order for t, memoized per tree (memPO
// is the preparation's).
func (e *Engine) orderByName(t *tree.Tree, name string) (*order.Order, error) {
	return e.entry(t).Order(name)
}

// lowerBound returns bounds.Best(t, p, m), memoized; errors are folded
// to zero exactly as normalization treats them.
func (e *Engine) lowerBound(t *tree.Tree, p int, m float64) float64 {
	return e.entry(t).LowerBound(p, m)
}

// normalize returns the makespan divided by the best lower bound (the
// maximum of the classical and the memory-aware bound of §6).
func (e *Engine) normalize(t *tree.Tree, p int, m, makespan float64) float64 {
	lb := e.lowerBound(t, p, m)
	if lb == 0 {
		return 1
	}
	return makespan / lb
}

// fanOut runs fn(0..n-1) on the worker pool and waits for completion.
func (e *Engine) fanOut(n int, fn func(int)) {
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// job is one cell a worker must simulate, bound to its memo entry.
type job struct {
	*cellReq
	entry *cellEntry
}

// group gathers every missing cell sharing (tree, heuristic, orders,
// procs): a worker evaluates a whole group with one scheduler instance,
// Reset between memory bounds, so per-cell state allocation vanishes.
type group struct {
	t     *tree.Tree
	heur  string
	procs int
	ao    *order.Order
	eo    *order.Order
	jobs  []job
}

type groupKey struct {
	tree   *tree.Tree
	heur   string
	procs  int
	ao, eo string
}

// EvalAll computes every requested cell not already memoized; a request
// repeated inside the batch is a hit on the entry its first copy made.
// It never fails itself: per-cell errors are memoized and surfaced by
// planner.run.
func (e *Engine) EvalAll(reqs []cellReq) {
	var (
		groups  []*group
		byGroup = make(map[groupKey]*group)
	)
	e.mu.Lock()
	e.stats.CellsRequested += len(reqs)
	for i := range reqs {
		r := &reqs[i]
		if _, ok := e.cells[r.key]; ok {
			e.stats.CellHits++
			continue
		}
		ent := new(cellEntry)
		e.cells[r.key] = ent
		e.stats.CellsComputed++
		gk := groupKey{r.key.tree, r.key.heur, r.key.procs, r.key.ao, r.key.eo}
		g, ok := byGroup[gk]
		if !ok {
			g = &group{t: r.key.tree, heur: r.key.heur, procs: r.key.procs, ao: r.ao, eo: r.eo}
			byGroup[gk] = g
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, job{r, ent})
	}
	e.mu.Unlock()
	e.fanOut(len(groups), func(i int) {
		var r sim.Runner
		e.evalGroup(groups[i], &r)
	})
}

// evalGroup simulates every cell of a group: the group's scheduler is
// built for its first cell and Reset to each later memory bound.
// Perturbed realisations of the group's run tree are derived once per
// perturbation and shared by every memory bound of the group.
func (e *Engine) evalGroup(g *group, r *sim.Runner) {
	var (
		s        baseline.Scheduler
		nominal  *tree.Tree // the tree s executes: g.t, or its reduction transform
		realised map[string]*tree.Tree
	)
	for _, j := range g.jobs {
		var err error
		if s == nil {
			s, nominal, err = baseline.New(g.heur, g.t, j.m, g.ao, g.eo)
		} else {
			err = s.Reset(j.m)
		}
		if err != nil {
			j.entry.err = err
			continue
		}
		run := nominal
		if j.factors != nil {
			// Execute the perturbed realisation: same shape and sizes,
			// scaled durations. The scheduler above was built from — and
			// bounded by — the nominal tree. For RedTree the run tree is
			// the reduction transform, whose first Len(nominal) nodes map
			// one-to-one to the nominal tasks and whose fictitious leaves
			// have zero duration, so the nominal factor vector applies.
			pt, ok := realised[j.key.perturb]
			if !ok {
				pt, err = perturb.Apply(nominal, j.factors)
				if err != nil {
					j.entry.err = err
					continue
				}
				if realised == nil {
					realised = make(map[string]*tree.Tree)
				}
				realised[j.key.perturb] = pt
			}
			run = pt
		}
		opts := sim.Options{CheckMemory: true, Bound: j.m, NoSchedTime: !j.key.timed}
		if j.key.timed && e.fakeClock {
			opts.Clock = newFakeClock()
		}
		res, err := r.Run(run, g.procs, s, &opts)
		if err != nil {
			var dead *core.ErrDeadlock
			if errors.As(err, &dead) {
				j.entry.out = outcome{ok: false}
			} else {
				j.entry.err = err
			}
			continue
		}
		j.entry.out = outcome{
			ok:        true,
			makespan:  res.Makespan,
			peakMem:   res.PeakMem,
			booked:    res.PeakBooked,
			schedTime: res.SchedTime,
		}
	}
}

// planner accumulates the cell grid of one experiment. want and block
// hand back the handles the results will be written to, so a runner
// lays its rows out once: plan, run, read through the handles.
type planner struct {
	eng  *Engine
	reqs []cellReq
}

func (c *Config) plan() *planner {
	return &planner{eng: c.Engine()}
}

// draw is one realisation of a duration-perturbation model on one
// instance: the model's name (the memo key) and the per-task duration
// multipliers. The zero draw is the nominal run.
type draw struct {
	name    string
	factors []float64
}

// want plans one cell — pr under heur on procs processors at factor ×
// pr.peak, activated by ao and executed by eo — and returns where run
// will write its outcome. timed requests a SchedTime measurement; a
// non-zero d makes the simulation execute d's perturbed durations while
// the scheduler keeps working from nominal data.
func (p *planner) want(pr prepared, heur string, procs int, factor float64, ao, eo *order.Order, timed bool, d draw) *outcome {
	out := new(outcome)
	p.reqs = append(p.reqs, cellReq{
		key: cellKey{tree: pr.inst.Tree, heur: heur, procs: procs, factor: factor, ao: ao.Name, eo: eo.Name, perturb: d.name, timed: timed},
		ao:  ao, eo: eo, m: factor * pr.peak, factors: d.factors,
		inst: pr.inst.Name, out: out})
	return out
}

// block plans the factors × heuristics × instances grid nearly every
// figure reduces, each instance under its memPO order with nominal
// durations, and returns the handles indexed [factor][heuristic][instance].
func (p *planner) block(prep []prepared, heuristics []string, procs int, factors []float64, timed bool) [][][]*outcome {
	blk := make([][][]*outcome, len(factors))
	for fi, factor := range factors {
		blk[fi] = make([][]*outcome, len(heuristics))
		for hi, heur := range heuristics {
			col := make([]*outcome, len(prep))
			for i, pr := range prep {
				col[i] = p.want(pr, heur, procs, factor, pr.ao, pr.ao, timed, draw{})
			}
			blk[fi][hi] = col
		}
	}
	return blk
}

// run evaluates every planned cell (parallel, deduplicated, memoized)
// and fills the handles. A deadlock is an outcome (ok false); any other
// cell failure is returned, the first in plan order.
func (p *planner) run() error {
	p.eng.EvalAll(p.reqs)
	p.eng.mu.Lock()
	defer p.eng.mu.Unlock()
	for i := range p.reqs {
		r := &p.reqs[i]
		ent := p.eng.cells[r.key]
		if ent.err != nil {
			return fmt.Errorf("%s on %s: %w", r.key.heur, r.inst, ent.err)
		}
		*r.out = ent.out
	}
	return nil
}
