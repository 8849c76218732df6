package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/tree"
	"repro/internal/workload"
)

// sweepExperiments is one pass of the paper-reproduction path: the
// figures that share the (instance, heuristic, factor) grid, the two
// order studies, and the three experiments that run the other
// single-tree engines (perturb, moldable, distributed). None of them
// has a wall-clock column, so their tables are pure functions of the
// seed.
var sweepExperiments = []string{"fig2", "fig3", "fig4", "fig10", "fig11", "fig12", "robust", "moldable", "dist"}

// sweepBench runs the experiment list through a cold sweep engine, one
// pass per operation.
type sweepBench struct {
	name   string
	seed   uint64
	smoke  bool
	asm    []workload.Instance
	syn    []workload.Instance
	digest map[string]uint64 // per experiment, from the first pass
	stats  harness.EngineStats
}

func (b *sweepBench) setup(seed uint64, smoke bool) error {
	b.seed, b.smoke = seed, smoke
	opt := workload.AssemblyCorpusOptions{
		Grids2D: []int{24, 40}, RandomN: []int{500}, Bands: [][2]int{{2000, 2}}, Amalgamations: []int{4},
	}
	sizes := []int{1000, 5000}
	if smoke {
		opt = workload.AssemblyCorpusOptions{Grids2D: []int{8}, RandomN: []int{60}, Amalgamations: []int{4}}
		sizes = []int{100}
	}
	var err error
	if b.asm, err = workload.AssemblyCorpus(seed, opt); err != nil {
		return err
	}
	b.syn = workload.SyntheticCorpus(seed, 4, sizes)
	b.digest = map[string]uint64{}
	return nil
}

func (b *sweepBench) close() { b.asm, b.syn = nil, nil }

// pass runs every experiment on a fresh Config, so the engine's memo
// starts cold. Each table is one checked operation. With a tracer each
// experiment runs inside a span.
func (b *sweepBench) pass(workers int, tr *tracer, chk *checker) (time.Duration, error) {
	cfg := &harness.Config{
		Seed: b.seed, Procs: svcProcs, MemFactors: []float64{1, 1.25, 2, 5, 10},
		Assembly: b.asm, Synthetic: b.syn, Workers: workers,
	}
	tables := make([]*harness.Table, len(sweepExperiments))
	start := time.Now()
	for i, id := range sweepExperiments {
		span := tr.begin("harness."+id, int32(i))
		tab, err := harness.Run(id, cfg)
		tr.end(span)
		if err != nil {
			return 0, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables[i] = tab
	}
	wall := time.Since(start)
	b.stats = cfg.Engine().Stats()
	for i, tab := range tables {
		chk.op(b.verify(sweepExperiments[i], tab, chk))
	}
	return wall, nil
}

func (b *sweepBench) verify(id string, tab *harness.Table, chk *checker) string {
	if len(tab.Rows) == 0 {
		return fmt.Sprintf("%s: experiment %s produced no rows", b.name, id)
	}
	var text strings.Builder
	if err := tab.WriteTSV(&text); err != nil {
		return err.Error()
	}
	d := digest([]byte(text.String()))
	first, seen := b.digest[id]
	if !seen {
		b.digest[id] = d
		return checkGolden(chk, b.name+"."+id, b.seed, b.smoke, d)
	}
	if d != first {
		return fmt.Sprintf("%s: table %s differs from the first pass", b.name, id)
	}
	return ""
}

func (b *sweepBench) warm(chk *checker) error {
	_, err := b.pass(0, nil, chk)
	return err
}

func (b *sweepBench) timed(d time.Duration, chk *checker) (timing, error) {
	tm, err := timedPasses(d, func() (time.Duration, error) { return b.pass(0, nil, chk) })
	tm.allocOps = len(tm.latMS)
	return tm, err
}

func (b *sweepBench) traced(tr *tracer, r *results, e2e timing, chk *checker) error {
	untracedMS := summarize(e2e.latMS, "").Value
	wall, err := b.pass(0, tr, chk)
	if err != nil {
		return err
	}
	r.set("trace.overhead_share", wall.Seconds()*1e3/untracedMS-1)
	st := b.stats
	r.set("harness.cells_requested", float64(st.CellsRequested))
	r.set("harness.cells_computed", float64(st.CellsComputed))
	r.set("harness.cell_hit_share", float64(st.CellHits)/float64(st.CellsRequested))
	r.set("harness.prep_computed", float64(st.PrepComputed))
	byName := selfByName(tr.spans)
	for _, id := range []string{"fig2", "fig10", "robust", "moldable", "dist"} {
		ns := byName["harness."+id][0]
		r.set("harness.exp_share."+id, ns/float64(wall.Nanoseconds()))
		r.extra("harness.exp_ms."+id, "ms", ns/1e6)
	}
	serial, err := b.pass(1, nil, chk)
	if err != nil {
		return err
	}
	r.extra("harness.serial_pass_ms", "ms", serial.Seconds()*1e3)
	r.set("harness.parallel_speedup", serial.Seconds()*1e3/untracedMS)

	var trees []*tree.Tree
	for _, inst := range append(append([]workload.Instance(nil), b.asm...), b.syn...) {
		trees = append(trees, inst.Tree)
	}
	if err := stageProbe(tr, r, sampleTrees(trees, 16), nil, false); err != nil {
		return err
	}
	_, err = coreProbe(tr, r, prepare(trees), svcProcs, svcMemFactor)
	return err
}
