// Package harness regenerates every table and figure of the paper's
// evaluation (§6–7). Each experiment is a function from a Config to a
// Table of rows matching the series plotted in the paper; the registry in
// registry.go maps experiment IDs to runners (IDs lists them, DESIGN.md
// §4 indexes them). cmd/experiments, the root BenchmarkExperiment and
// bench/'s sweep_paper workload are thin wrappers around this package.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Heuristic names used throughout the tables.
const (
	HeurActivation = "Activation"
	HeurRedTree    = "MemBookingRedTree"
	HeurMemBooking = "MemBooking"
)

// AllHeuristics lists the three compared policies in paper order; the
// set and its construction live in internal/baseline.
var AllHeuristics = baseline.Names

// Config scales an experiment run.
type Config struct {
	// Seed drives all workload generation.
	Seed uint64
	// Procs is the processor count (the paper's default is 8).
	Procs int
	// MemFactors are the normalised memory bounds (multiples of the
	// minimal memory, i.e. the peak of the min-peak postorder).
	MemFactors []float64
	// Assembly is the assembly-tree corpus; nil selects a scaled-down
	// default.
	Assembly []workload.Instance
	// Synthetic is the synthetic-tree corpus; nil selects a scaled-down
	// default.
	Synthetic []workload.Instance
	// Workers is the sweep-engine worker-pool width: 0 selects
	// GOMAXPROCS, 1 forces serial evaluation. Parallel evaluation is
	// deterministic: it produces the same tables as the serial path.
	Workers int
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer

	// eng is the sweep engine shared by every experiment run through
	// this Config; it memoizes preparations, orders, lower bounds and
	// simulation cells (see sweep.go).
	eng *Engine
	// fakeSchedClock makes every SchedTime measurement deterministic;
	// tests use it to compare timing columns byte-for-byte.
	fakeSchedClock bool
}

// Engine returns the Config's sweep engine, creating it on first use.
func (c *Config) Engine() *Engine {
	if c.eng == nil {
		w := c.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		c.eng = NewEngine(w, c.fakeSchedClock)
	}
	return c.eng
}

func (c *Config) procs() int {
	if c.Procs <= 0 {
		return 8
	}
	return c.Procs
}

func (c *Config) factors() []float64 {
	if len(c.MemFactors) > 0 {
		return c.MemFactors
	}
	return []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10, 15, 20}
}

func (c *Config) assembly() []workload.Instance {
	if c.Assembly == nil {
		corpus, err := workload.AssemblyCorpus(c.Seed, workload.AssemblyCorpusOptions{
			Grids2D:       []int{40, 64, 96, 128, 160},
			RCMGrids:      []int{40},
			Grids3D:       []int{10, 12, 14, 16},
			RandomN:       []int{800, 2000},
			Bands:         [][2]int{{8000, 2}},
			Amalgamations: []int{1, 8},
		})
		if err != nil {
			panic(err) // deterministic inputs; cannot fail
		}
		c.Assembly = corpus
	}
	return c.Assembly
}

func (c *Config) synthetic() []workload.Instance {
	if c.Synthetic == nil {
		c.Synthetic = workload.SyntheticCorpus(c.Seed, 8, []int{1000, 10000})
	}
	return c.Synthetic
}

func (c *Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// Table is an experiment result: a header and rows of formatted cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v (floats as %.4g).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = fmt.Sprintf("%.6g", x.Seconds())
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteTSV emits the table as tab-separated values under a "# ID: title" line.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// prepared caches the per-tree artefacts shared by all runs: the memPO
// activation order and its sequential peak (the "minimum memory" all
// bounds are normalised by). The sweep engine memoizes them per tree
// (see Engine.prepare).
type prepared struct {
	inst workload.Instance
	ao   *order.Order
	peak float64
}

// prepare returns the prepared instances through the Config's engine,
// so every experiment on the same Config shares the work.
func (c *Config) prepare(insts []workload.Instance) []prepared {
	return c.Engine().prepare(insts)
}

// outcome is the result of one (tree, heuristic, factor) simulation.
type outcome struct {
	ok        bool
	makespan  float64
	peakMem   float64
	booked    float64
	schedTime time.Duration
}

// normalize returns the makespan divided by the best lower bound (the
// maximum of the classical and the memory-aware bound of §6), memoized
// per (tree, procs, bound) in the Config's engine.
func (c *Config) normalize(tr *tree.Tree, p int, m, makespan float64) float64 {
	return c.Engine().normalize(tr, p, m, makespan)
}

// simOpts builds the simulator options for runs made outside the sweep
// engine. measureSched requests the SchedTime measurement (with the
// deterministic test clock when the Config asks for one).
func (c *Config) simOpts(m float64, measureSched bool) *sim.Options {
	o := &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: !measureSched}
	if measureSched && c.fakeSchedClock {
		o.Clock = newFakeClock()
	}
	return o
}
