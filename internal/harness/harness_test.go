package harness

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// tinyConfig keeps experiment tests fast: a handful of small trees and
// few memory factors.
func tinyConfig() *Config {
	assembly, err := workload.AssemblyCorpus(7, workload.AssemblyCorpusOptions{
		Grids2D:       []int{12},
		RandomN:       []int{200},
		Amalgamations: []int{4},
	})
	if err != nil {
		panic(err)
	}
	return &Config{
		Seed:       7,
		Procs:      4,
		MemFactors: []float64{1, 2, 5},
		Assembly:   assembly,
		Synthetic:  workload.SyntheticCorpus(7, 3, []int{300}),
	}
}

func findRows(t *Table, match func(row []string) bool) [][]string {
	var out [][]string
	for _, r := range t.Rows {
		if match(r) {
			out = append(out, r)
		}
	}
	return out
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "avgmem", "dist", "faults", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "lb", "moldable", "multi", "multi_stream", "price", "profile",
		"redfail", "robust"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The headline claim of the paper: MemBooking dominates both competitors
// under tight memory. Verified on the miniature corpus.
func TestMemBookingDominatesOnAssembly(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Run("fig2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At the tightest bound MemBooking must complete 100% of trees.
	rows := findRows(tab, func(r []string) bool {
		return r[0] == "1" && r[1] == HeurMemBooking
	})
	if len(rows) != 1 {
		t.Fatalf("fig2 missing MemBooking row at factor 1: %v", tab.Rows)
	}
	if rows[0][3] != "1.000" {
		t.Fatalf("MemBooking completion at minimum memory = %s, want 1.000", rows[0][3])
	}
	// At factor 2, MemBooking's mean normalised makespan must be at most
	// the other heuristics' (when they completed enough trees).
	get := func(heur string) (float64, bool) {
		rows := findRows(tab, func(r []string) bool { return r[0] == "2" && r[1] == heur })
		if len(rows) != 1 || rows[0][2] == "NA" {
			return 0, false
		}
		return cellFloat(t, rows[0][2]), true
	}
	mb, ok := get(HeurMemBooking)
	if !ok {
		t.Fatal("MemBooking has no mean at factor 2")
	}
	for _, other := range []string{HeurActivation, HeurRedTree} {
		if v, ok := get(other); ok && mb > v+1e-9 {
			t.Errorf("MemBooking (%.4g) worse than %s (%.4g) at factor 2", mb, other, v)
		}
	}
}

func TestSpeedupSweepAtLeastOne(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Run("fig3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.MemFactors) {
		t.Fatalf("fig3 rows = %d, want %d", len(tab.Rows), len(cfg.MemFactors))
	}
	for _, r := range tab.Rows {
		if v := cellFloat(t, r[1]); v < 0.99 {
			t.Errorf("mean speedup %v < 1 at factor %s", v, r[0])
		}
	}
}

func TestMemFractionBounded(t *testing.T) {
	tab, err := Run("fig4", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[2] == "NaN" {
			continue
		}
		used := cellFloat(t, r[2])
		if used < 0 || used > 1.000001 {
			t.Errorf("memory fraction %v out of [0,1] in row %v", used, r)
		}
	}
}

func TestSchedTimeTablesHaveRows(t *testing.T) {
	for _, id := range []string{"fig5", "fig6"} {
		tab, err := Run(id, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestOrderStudyKeepsRanking(t *testing.T) {
	tab, err := Run("fig8", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	combos := map[string]bool{}
	for _, r := range tab.Rows {
		combos[r[1]] = true
	}
	if len(combos) != len(orderCombos) {
		t.Fatalf("fig8 covers %d combos, want %d", len(combos), len(orderCombos))
	}
}

func TestLBStats(t *testing.T) {
	tab, err := Run("lb", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	improvedSomewhere := false
	for _, r := range tab.Rows {
		frac := cellFloat(t, r[2])
		if frac < 0 || frac > 1 {
			t.Fatalf("improved fraction %v out of range", frac)
		}
		if frac > 0 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("memory LB never improved the classical LB on any corpus")
	}
}

func TestRedFailShowsRedTreeWeakness(t *testing.T) {
	tab, err := Run("redfail", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// MemBooking never fails; RedTree fails at factor 1 on synthetic
	// trees (they all have execution data, so the transform inflates the
	// peak above the original minimum memory).
	for _, r := range tab.Rows {
		if r[1] == HeurMemBooking && cellFloat(t, r[2]) > 0 {
			t.Errorf("MemBooking failed at factor %s", r[0])
		}
	}
	rows := findRows(tab, func(r []string) bool { return r[0] == "1" && r[1] == HeurRedTree })
	if len(rows) != 1 || cellFloat(t, rows[0][2]) == 0 {
		t.Error("RedTree unexpectedly scheduled every synthetic tree at the minimum bound")
	}
}

func TestAvgMemStudyImproves(t *testing.T) {
	tab, err := Run("avgmem", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if ratio := cellFloat(t, r[3]); ratio > 1+1e-9 {
			t.Errorf("avgMemPO has worse average memory than memPO on %s (ratio %v)", r[0], ratio)
		}
	}
}

func TestProfileAndTSV(t *testing.T) {
	tab, err := Run("profile", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "# profile:") || !strings.Contains(s, "\t") {
		t.Fatalf("unexpected TSV output:\n%.200s", s)
	}
}

// Every registered experiment must run on the miniature corpus and
// produce a well-formed table (non-empty header, rows, consistent cell
// counts). This is the smoke test that keeps the whole figure registry
// runnable.
func TestEveryExperimentRuns(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			cfg := tinyConfig()
			tab, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Fatalf("table ID %q != %q", tab.ID, id)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("experiment %s produced an empty table", id)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Fatalf("row width %d != header width %d in %s", len(r), len(tab.Header), id)
				}
			}
			var buf bytes.Buffer
			if err := tab.WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The robust experiment exercises the paper's dynamic-scheduling claim:
// MemBooking's completion guarantee and memory bound must hold under
// every duration-perturbation model at every factor ≥ 1, because
// Theorem 1 depends only on the tree shape and data sizes — which the
// perturbation leaves untouched.
func TestRobustMemBookingUnshaken(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Run("robust", cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]bool{}
	for _, r := range tab.Rows {
		models[r[0]] = true
		safe := cellFloat(t, r[7])
		if frac := cellFloat(t, r[3]); frac > 0 {
			if safe != 1 {
				t.Errorf("memory-safety %v < 1 in row %v", safe, r)
			}
		} else if !math.IsNaN(safe) {
			t.Errorf("memory-safety %v reported with zero completions in row %v", safe, r)
		}
		if r[2] == HeurMemBooking {
			if frac := cellFloat(t, r[3]); frac != 1 {
				t.Errorf("MemBooking completed %v under %s at factor %s, want 1", frac, r[0], r[1])
			}
			if slow := cellFloat(t, r[4]); slow <= 0 {
				t.Errorf("non-positive mean slowdown %v in row %v", slow, r)
			}
		}
	}
	if want := len(robustFactors()) * len(AllHeuristics); len(tab.Rows) != want*len(models) {
		t.Fatalf("robust has %d rows for %d models, want %d per model", len(tab.Rows), len(models), want)
	}
	// Stragglers must actually hurt: the 10× heavy tail cannot leave the
	// mean makespan unchanged.
	rows := findRows(tab, func(r []string) bool {
		return r[0] == "stragglers(0.05,10)" && r[2] == HeurMemBooking && r[1] == "2"
	})
	if len(rows) != 1 {
		t.Fatalf("missing stragglers row: %v", tab.Rows)
	}
	if slow := cellFloat(t, rows[0][4]); slow <= 1 {
		t.Errorf("stragglers mean slowdown %v, want > 1", slow)
	}
}

// The perturbed cells must share the nominal denominators with the
// fig2-style grid and be memoized like every other cell: a robust
// re-run simulates nothing new.
func TestRobustCellsMemoized(t *testing.T) {
	cfg := tinyConfig()
	if _, err := Run("robust", cfg); err != nil {
		t.Fatal(err)
	}
	first := cfg.Engine().Stats()
	if _, err := Run("robust", cfg); err != nil {
		t.Fatal(err)
	}
	second := cfg.Engine().Stats()
	if second.CellsComputed != first.CellsComputed {
		t.Errorf("robust re-run simulated %d new cells", second.CellsComputed-first.CellsComputed)
	}
}

// The dist experiment must show the §8 tension: fewer completions with
// more domains at tight bounds, full completion at generous bounds.
func TestDistShowsDomainTension(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Run("dist", cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := func(domains, factor string) float64 {
		rows := findRows(tab, func(r []string) bool { return r[0] == domains && r[1] == factor })
		if len(rows) != 1 {
			t.Fatalf("missing dist row %s/%s", domains, factor)
		}
		return cellFloat(t, rows[0][3])
	}
	if frac("1", "1") < frac("4", "1") {
		t.Error("more domains completed more trees at the minimum bound")
	}
	if frac("4", "5") < 1 {
		t.Error("4 domains could not complete at a generous bound")
	}
}

// The price experiment must be monotone: more memory, lower slowdown.
func TestPriceMonotone(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Run("price", cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, r := range tab.Rows {
		v := cellFloat(t, r[2])
		if prev, ok := last[r[0]]; ok && v > prev+0.05 {
			t.Errorf("%s: slowdown rose from %g to %g with more memory", r[0], prev, v)
		}
		last[r[0]] = v
		if v < 1-1e-9 {
			t.Errorf("slowdown %g below 1", v)
		}
	}
}

// The moldable experiment must never be slower than rigid.
func TestMoldableNeverSlower(t *testing.T) {
	tab, err := Run("moldable", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if sp := cellFloat(t, r[3]); sp < 1-1e-9 {
			t.Errorf("moldable slower than rigid at factor %s (speedup %g)", r[0], sp)
		}
	}
}
