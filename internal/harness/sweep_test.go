package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/workload"
)

func tsvOf(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The parallel sweep engine must emit byte-identical tables to the
// serial path for every registered experiment, including the wall-clock
// columns (made deterministic by the fake scheduler clock). Both runs
// use one Config across all experiments, exercising the cross-figure
// cell cache on both paths.
func TestParallelMatchesSerialAllExperiments(t *testing.T) {
	serial := tinyConfig()
	serial.Workers = 1
	serial.fakeSchedClock = true
	par := tinyConfig()
	par.Workers = 4
	par.fakeSchedClock = true
	for _, id := range IDs() {
		ts, err := Run(id, serial)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		tp, err := Run(id, par)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if got, want := tsvOf(t, tp), tsvOf(t, ts); !bytes.Equal(got, want) {
			t.Errorf("%s: parallel TSV differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, want, got)
		}
	}
}

// fig2, fig3 and fig4 sweep the same (instance, heuristic, factor) grid;
// through the shared engine each cell must be simulated exactly once.
func TestSweepSharesCellsAcrossFigures(t *testing.T) {
	cfg := tinyConfig()
	if _, err := Run("fig2", cfg); err != nil {
		t.Fatal(err)
	}
	after2 := cfg.Engine().Stats()
	wantCells := len(cfg.MemFactors) * len(AllHeuristics) * len(cfg.Assembly)
	if after2.CellsComputed != wantCells {
		t.Fatalf("fig2 simulated %d cells, want %d", after2.CellsComputed, wantCells)
	}
	if after2.CellHits != 0 {
		t.Fatalf("fig2 on a fresh engine had %d cache hits, want 0", after2.CellHits)
	}
	if _, err := Run("fig3", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("fig4", cfg); err != nil {
		t.Fatal(err)
	}
	after4 := cfg.Engine().Stats()
	if after4.CellsComputed != after2.CellsComputed {
		t.Errorf("fig3+fig4 re-simulated %d cells that fig2 already computed",
			after4.CellsComputed-after2.CellsComputed)
	}
	// fig3 requests 2 heuristics per (factor, instance), fig4 all 3; every
	// one of those requests must be a cache hit.
	wantHits := len(cfg.MemFactors)*2*len(cfg.Assembly) + wantCells
	if got := after4.CellHits - after2.CellHits; got != wantHits {
		t.Errorf("fig3+fig4 hit the cache %d times, want %d", got, wantHits)
	}
	// The per-instance preparation must have been computed once per tree.
	if after4.PrepComputed != len(cfg.Assembly) {
		t.Errorf("prepared %d trees, want %d", after4.PrepComputed, len(cfg.Assembly))
	}
}

// A timed request after an untimed run of the same cell must re-simulate
// (to measure SchedTime); a later untimed request is then served by the
// timed entry.
func TestSweepTimedUpgrade(t *testing.T) {
	cfg := tinyConfig()
	if _, err := Run("fig2", cfg); err != nil { // untimed cells, factor 2 included
		t.Fatal(err)
	}
	before := cfg.Engine().Stats()
	if _, err := Run("fig5", cfg); err != nil { // timed cells at factor 2
		t.Fatal(err)
	}
	mid := cfg.Engine().Stats()
	upgraded := len(AllHeuristics) * len(cfg.Assembly)
	if got := mid.CellsComputed - before.CellsComputed; got != upgraded {
		t.Errorf("fig5 simulated %d cells, want %d (timed upgrades)", got, upgraded)
	}
	if _, err := Run("fig7", cfg); err != nil { // untimed, factor 2, 2 heuristics
		t.Fatal(err)
	}
	after := cfg.Engine().Stats()
	if got := after.CellsComputed - mid.CellsComputed; got != 0 {
		t.Errorf("fig7 re-simulated %d cells despite timed entries being cached", got)
	}
}

// Re-running a scheduler through the reusable sim.Runner must not
// allocate per run: Init rebuilds the state in place and the runner
// reuses its event heap and batch buffer. The pooled case holds the
// stream path to the same standard: MemBookingPool.Get rebinds a
// recycled instance and Put files it back without allocating, so a
// new allocation in Get, Rebind or Put fails here rather than hiding
// inside TestSteadyStateAllocsPerJob's per-job bound.
func TestReRunAllocations(t *testing.T) {
	opts := &sim.Options{NoSchedTime: true}

	t.Run("reset", func(t *testing.T) {
		inst := workload.SyntheticCorpus(3, 1, []int{2000})[0]
		ao, peak := order.MinMemPostOrder(inst.Tree)
		s, err := core.NewMemBooking(inst.Tree, 2*peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		var r sim.Runner
		run := func() {
			if _, err := r.Run(inst.Tree, 8, s, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up: first run allocates the O(n) state
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Reset(2 * peak); err != nil {
				t.Fatal(err)
			}
			run()
		})
		// The Result struct and the closures in Run are the only survivors.
		if allocs > 8 {
			t.Errorf("re-run allocated %.0f objects per run, want ≤ 8", allocs)
		}
	})

	// 2000 nodes, not a power of two: the pool builds a missed instance
	// at its size-class capacity (2048), so Put files it where the next
	// Get for the same tree looks. Built at cap = n it would land one
	// class down and every cycle would be a fresh NewMemBooking.
	t.Run("pooled", func(t *testing.T) {
		inst := workload.SyntheticCorpus(3, 1, []int{2000})[0]
		ao, peak := order.MinMemPostOrder(inst.Tree)
		var pool core.MemBookingPool
		var r sim.Runner
		run := func(s *core.MemBooking) {
			if _, err := r.Run(inst.Tree, 8, s, opts); err != nil {
				t.Fatal(err)
			}
		}
		cycle := func() {
			s, err := pool.Get(inst.Tree, 2*peak, ao, ao)
			if err != nil {
				t.Fatal(err)
			}
			run(s)
			pool.Put(s)
		}
		cycle() // allocates the instance and the runner's buffers
		cycle() // first recycled cycle
		pooled := testing.AllocsPerRun(5, cycle)
		if pooled > 4 {
			t.Errorf("Get → Run → Put allocated %.0f objects per cycle, want ≤ 4", pooled)
		}
		// Whatever Run itself allocates (its Result), the pool adds
		// nothing to it: the same run on an instance held across runs
		// is the floor, and one allocation in Get, Rebind or Put lifts
		// the cycle above it.
		held, err := pool.Get(inst.Tree, 2*peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		run(held)
		rerun := testing.AllocsPerRun(5, func() {
			if err := held.Reset(2 * peak); err != nil {
				t.Fatal(err)
			}
			run(held)
		})
		if pooled > rerun {
			t.Errorf("Get → Run → Put allocated %.0f objects per cycle, Reset → Run %.0f: the pool cycle must add none", pooled, rerun)
		}
	})
}

// The deterministic grids must also hold across two independent engines
// with freshly generated (but same-seed) corpora: the memo key is
// content-derived, not dependent on evaluation order.
func TestSweepDeterministicAcrossEngines(t *testing.T) {
	a := tinyConfig()
	b := tinyConfig()
	b.Workers = 3
	ta, err := Run("fig9", a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Run("fig9", b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tsvOf(t, ta), tsvOf(t, tb)) {
		t.Error("fig9 differs between two independently-built configs")
	}
}

// A cell that cannot be built (here: CP, root first, as activation
// order) is not a deadlock outcome: run reports it, naming the
// heuristic and the instance, and the cells planned before it are filled.
func TestPlannerRunNamesFailingCell(t *testing.T) {
	cfg := tinyConfig()
	pr := cfg.prepare(cfg.Assembly[:1])[0]
	cp, err := cfg.Engine().orderByName(pr.inst.Tree, order.NameCP)
	if err != nil {
		t.Fatal(err)
	}
	pl := cfg.plan()
	good := pl.want(pr, HeurMemBooking, 4, 2, pr.ao, pr.ao, false, draw{})
	pl.want(pr, HeurActivation, 4, 2, cp, cp, false, draw{})
	err = pl.run()
	if err == nil {
		t.Fatal("run accepted a non-topological activation order")
	}
	for _, want := range []string{HeurActivation, pr.inst.Name, "not topological"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("run() = %q, want it to mention %q", err, want)
		}
	}
	if !good.ok || good.makespan <= 0 {
		t.Errorf("the cell planned before the failing one reads %+v", *good)
	}
}
