// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment ID names one figure or textual result
// and prints a TSV table; DESIGN.md §4 indexes them and harness.IDs()
// lists them (-h prints the list).
//
// Usage:
//
//	experiments -exp fig2                  # one experiment, default scale
//	experiments -exp all -scale full       # everything, paper-scale corpora
//	experiments -exp fig9 -p 8 -seed 3 -o out/
//	experiments -exp all -parallel=false   # serial sweep engine
//	experiments -exp fig2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -scale quick uses miniature corpora (seconds), -scale default a few
// dozen medium trees (minutes), -scale full the large corpora (longer).
//
// All experiments run through one shared sweep engine (see
// internal/harness/sweep.go): the simulation cells of every figure are
// deduplicated and memoized, so `-exp all` computes each (instance,
// heuristic, memory-factor) cell exactly once even though fig2/fig3/fig4
// (and fig10/fig11/fig12) sweep the same grid. -parallel (the default)
// evaluates cells on a GOMAXPROCS-wide worker pool; the output is
// byte-identical to the serial path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all' (ids: "+fmt.Sprint(harness.IDs())+")")
		scale    = flag.String("scale", "default", "corpus scale: quick, default, full")
		seed     = flag.Uint64("seed", 1, "workload seed")
		procs    = flag.Int("p", 8, "default processor count")
		outDir   = flag.String("o", "", "write each table to <dir>/<id>.tsv instead of stdout")
		verbose  = flag.Bool("v", false, "progress output on stderr")
		parallel = flag.Bool("parallel", true, "evaluate sweep cells on a GOMAXPROCS-wide worker pool (deterministic)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
		timeline = flag.Bool("timeline", false, "instead of an experiment, print the cluster occupancy timeline of an observed fault-injected job-stream run")
		tlJobs   = flag.Int("timeline-jobs", 40, "job count of the -timeline stream")
		tlJSON   = flag.Bool("timeline-json", false, "emit the -timeline as JSON instead of text")
	)
	flag.Parse()
	if *timeline {
		os.Exit(runTimeline(*seed, *procs, *tlJobs, *tlJSON))
	}
	// run instead of inline code so error returns unwind through the
	// deferred profile writers: an os.Exit here would leave the CPU
	// profile unflushed — and a failing run is the one most worth
	// profiling.
	os.Exit(run(options{
		exp: *exp, scale: *scale, seed: *seed, procs: *procs,
		outDir: *outDir, verbose: *verbose, parallel: *parallel,
		cpuProf: *cpuProf, memProf: *memProf,
	}))
}

// options carries the parsed flags into run.
type options struct {
	exp      string
	scale    string
	seed     uint64
	procs    int
	outDir   string
	verbose  bool
	parallel bool
	cpuProf  string
	memProf  string
}

func run(o options) int {
	if o.cpuProf != "" {
		stop, err := startCPUProfile(o.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		defer stop()
	}
	if o.memProf != "" {
		defer func() {
			if err := writeHeapProfile(o.memProf); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	cfg, err := configFor(o.scale, o.seed, o.procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if !o.parallel {
		cfg.Workers = 1
	}
	if o.verbose {
		cfg.Verbose = os.Stderr
	}

	ids := []string{o.exp}
	if o.exp == "all" {
		ids = harness.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := harness.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			f, err := os.Create(filepath.Join(o.outDir, id+".tsv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			if err := tab.WriteTSV(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "%s: %d rows in %v -> %s\n",
				id, len(tab.Rows), time.Since(start).Round(time.Millisecond),
				filepath.Join(o.outDir, id+".tsv"))
		} else {
			if err := tab.WriteTSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			fmt.Println()
		}
	}
	if o.verbose {
		st := cfg.Engine().Stats()
		fmt.Fprintf(os.Stderr,
			"sweep engine: %d cells requested, %d served from cache, %d simulated (%d trees prepared, %d reused)\n",
			st.CellsRequested, st.CellHits, st.CellsComputed, st.PrepComputed, st.PrepRequested-st.PrepComputed)
	}
	return 0
}

// startCPUProfile begins a CPU profile into path and returns the stop
// function (flushes and closes the file).
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile writes a heap profile of the live data to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle allocations so the profile shows live data
	return pprof.WriteHeapProfile(f)
}

func configFor(scale string, seed uint64, procs int) (*harness.Config, error) {
	cfg := &harness.Config{Seed: seed, Procs: procs}
	switch scale {
	case "quick":
		assembly, err := workload.AssemblyCorpus(seed, workload.AssemblyCorpusOptions{
			Grids2D:       []int{16, 24},
			RandomN:       []int{300},
			Bands:         [][2]int{{1000, 2}},
			Amalgamations: []int{4},
		})
		if err != nil {
			return nil, err
		}
		cfg.Assembly = assembly
		cfg.Synthetic = workload.SyntheticCorpus(seed, 4, []int{500, 2000})
		cfg.MemFactors = []float64{1, 1.25, 2, 5, 10}
	case "default":
		// The zero Config fields fall back to their defaults lazily.
	case "full":
		assembly, err := workload.AssemblyCorpus(seed, workload.DefaultAssemblyCorpus())
		if err != nil {
			return nil, err
		}
		cfg.Assembly = assembly
		cfg.Synthetic = workload.SyntheticCorpus(seed, 10, []int{1000, 10000, 100000})
		cfg.MemFactors = []float64{1, 1.1, 1.25, 1.5, 2, 2.5, 3, 5, 7.5, 10, 15, 20}
	default:
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	return cfg, nil
}
