// Command bench is the repository's benchmark: seven named workloads
// over the two paths that matter (a job stream through multitree.Run, a
// request through treeschedd) plus the paper-reproduction sweep, each
// reporting the end-to-end metrics of BENCHMARK.json with tracing off
// and, on request, a per-layer breakdown measured from outside the
// program. Run it through bench/run.sh; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 8

// bench is one workload's driver. setup builds the inputs from the seed
// (and may be called again after close, for the repeated set-up timing);
// warm is one untimed pass; timed runs operations for d with tracing
// off; traced produces the per-layer metrics.
type bench interface {
	setup(seed uint64, smoke bool) error
	warm(chk *checker) error
	timed(d time.Duration, chk *checker) (timing, error)
	traced(tr *tracer, r *results, e2e timing, chk *checker) error
	close()
}

// timing is what a timed loop measured.
type timing struct {
	latMS    []float64     // one latency per successful operation
	busy     time.Duration // wall time the operations took
	allocOps int           // divisor of the runtime.* per-op metrics
}

// timedPasses runs whole-pass operations back to back until d has
// elapsed, three at least, timing each.
func timedPasses(d time.Duration, pass func() (time.Duration, error)) (timing, error) {
	var tm timing
	for start := time.Now(); time.Since(start) < d || len(tm.latMS) < 3; {
		wall, err := pass()
		if err != nil {
			return tm, err
		}
		tm.latMS = append(tm.latMS, wall.Seconds()*1e3)
		tm.busy += wall
	}
	return tm, nil
}

// checker tallies checked operations: one stream pass, one HTTP request
// or job, one experiment table. An operation with a message failed.
type checker struct {
	attempted, failed int
	msgs              []string
	// digests are the output digests seen (a stream's schedule, a sweep
	// table), written with the results: where a new golden.json comes from.
	digests map[string]string
}

func (c *checker) op(msg string) {
	c.attempted++
	c.recheck(msg)
}

// recheck fails an operation that was already counted (a sampled answer
// recomputed after the timed loop).
func (c *checker) recheck(msg string) {
	if msg == "" {
		return
	}
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, msg)
	}
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.msgs = append(c.msgs, o.msgs...)
	for k, v := range o.digests {
		c.golden(k, v)
	}
}

func (c *checker) golden(key, digest string) {
	if c.digests == nil {
		c.digests = map[string]string{}
	}
	c.digests[key] = digest
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func() bench
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

var workloads = []workloadDef{
	{Name: "stream_mixed", setupReps: 3,
		Why:  "2000 mixed-size jobs at load 1: the admission queue stays near-empty, so time is core + pqueue + the event loop",
		make: func() bench { return &streamBench{name: "stream_mixed", opts: mixedOptions} }},
	{Name: "stream_backlog", setupReps: 3,
		Why:  "5000 small jobs at load 2: a queue of about a thousand, so admission passes, queue scans and pool churn show",
		make: func() bench { return &streamBench{name: "stream_backlog", opts: backlogOptions(5000)} }},
	{Name: "stream_faults", setupReps: 3,
		Why:  "1000 jobs under task failures, crashes and bursts: the fail-stop path, checkpoints every 64 tasks, restores, retries",
		make: func() bench { return &streamBench{name: "stream_faults", opts: faultsOptions, faulty: true} }},
	{Name: "svc_inline_warm", setupReps: 3,
		Why:  "64 cached 10k-node trees posted as inline text by 2 closed-loop clients: every request a cache hit, decode and parse dominate",
		make: func() bench { return &svcBench{name: "svc_inline_warm", mode: inlineWarm, count: 64, nodes: 10000} }},
	{Name: "svc_spec_cold", setupReps: 3,
		Why:  "distinct 10k-node synthetic specs: no parsing, every request a cache miss with generate, prepare and an eviction sweep",
		make: func() bench { return &svcBench{name: "svc_spec_cold", mode: specCold, nodes: 10000} }},
	{Name: "svc_jobs", setupReps: 5,
		Why:  "waves of 32 async jobs over 32 cached 1k-node trees, polled to completion: job store, runner goroutines, worker-pool slots",
		make: func() bench { return &svcBench{name: "svc_jobs", mode: asyncJobs, count: 32, nodes: 1000} }},
	{Name: "sweep_paper", setupReps: 5,
		Why:  "nine paper experiments on a cold sweep engine: the only coverage of sim re-runs, baseline, perturb, moldable and distributed",
		make: func() bench { return &sweepBench{name: "sweep_paper"} }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// environment is recorded with every result, so numbers from different
// machines or toolchains are never compared unknowingly.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func readEnvironment(commit string) environment {
	env := environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Arch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// outcome is everything one run produced.
type outcome struct {
	SchemaVersion int               `json:"schema_version"`
	Workload      string            `json:"workload"`
	Seed          uint64            `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Trace         bool              `json:"trace"`
	Scale         string            `json:"scale"`
	Env           environment       `json:"env"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Failures      []string          `json:"failures,omitempty"`
	Metrics       map[string]sample `json:"metrics"`
	Extras        map[string]sample `json:"extras,omitempty"`
	Digests       map[string]string `json:"digests,omitempty"`
}

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	commit  string
	outDir  string // where trace-<workload>.json goes; "" writes nothing
}

// run executes one workload: set-up (timed, repeated), one warm-up
// pass, the timed loop with tracing off, and with cfg.trace a separate
// traced pass and the layer probes.
func run(w *workloadDef, cfg runConfig) (*outcome, error) {
	b := w.make()
	defer b.close()
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		// Drop the previous set-up's inputs before timing the next, so
		// each set-up starts from the same heap.
		b.close()
		debug.FreeOSMemory()
		start := time.Now()
		if err := b.setup(cfg.seed, cfg.smoke); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var chk checker
	if err := b.warm(&chk); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	timedFor := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		timedFor /= 2 // the traced pass and the probes take the other half
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e2e, err := b.timed(timedFor, &chk)
	if err != nil {
		return nil, fmt.Errorf("timed loop: %w", err)
	}
	runtime.ReadMemStats(&after)
	if len(e2e.latMS) == 0 {
		return nil, fmt.Errorf("timed loop: no operation succeeded: %v", chk.msgs)
	}

	r := newResults()
	scale := "full"
	if cfg.smoke {
		scale = "smoke"
	}
	out := &outcome{SchemaVersion: schemaVersion, Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Scale: scale, Env: readEnvironment(cfg.commit)}
	if !cfg.trace {
		r.setSamples("setup_s", setups)
		r.setSamples("op_p50_ms", e2e.latMS)
		r.set("ops_per_s", float64(len(e2e.latMS))/e2e.busy.Seconds())
		// What the workload keeps: inputs, caches, pools. Two collections,
		// because a sync.Pool survives the first.
		runtime.GC()
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		r.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20))
		out.Metrics = r.final(endToEnd)
	} else {
		r.set("op_p95_ms", stats.Quantile(e2e.latMS, 0.95))
		r.set("op_p99_ms", stats.Quantile(e2e.latMS, 0.99))
		r.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(e2e.allocOps))
		r.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(e2e.allocOps))
		r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
		r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		r.set("runtime.peak_rss_mb", peakRSSMB())
		r.extra("op_p50_ms", "ms", summarize(e2e.latMS, "").Value)
		r.extra("ops_per_s", "1/s", float64(len(e2e.latMS))/e2e.busy.Seconds())
		tr := newTracer()
		if err := b.traced(tr, r, e2e, &chk); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if cfg.outDir != "" {
			if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), tr.spans); err != nil {
				return nil, err
			}
		}
		out.Metrics = r.final(perLayer)
	}
	out.Extras, out.Digests = r.extras, chk.digests
	out.Attempted, out.Failed, out.Failures = chk.attempted, chk.failed, chk.msgs
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit, then the contract's
// result object as the last line of standard output.
func report(out *outcome) {
	defs := endToEnd
	if out.Trace {
		defs = perLayer
	}
	fmt.Printf("# %s  seed=%d seconds=%g trace=%t scale=%s schema=%d\n", out.Workload, out.Seed, out.Seconds, out.Trace, out.Scale, out.SchemaVersion)
	fmt.Printf("# %s, nproc=%d GOMAXPROCS=%d, %s %s, commit %s\n", out.Env.CPU, out.Env.NProc, out.Env.GoMaxProcs, out.Env.Go, out.Env.Arch, out.Env.Commit)
	line := func(name, class string, s sample) {
		fmt.Printf("%-34s %16.6g %-8s %-9s", name, s.Value, s.Unit, class)
		if s.N > 0 {
			fmt.Printf(" n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Println()
	}
	for _, d := range defs {
		line(d.Name, d.Class, out.Metrics[d.Name])
	}
	for _, name := range sortedKeys(out.Extras) {
		line(name, "extra", out.Extras[name])
	}
	fmt.Printf("# checks: %d operations attempted, %d failed\n", out.Attempted, out.Failed)
	for _, msg := range out.Failures {
		fmt.Printf("# FAILED: %s\n", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.Metrics))
	for name, s := range out.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, metrics})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(last))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Uint64("seed", 7, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed loop")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
		scale     = flag.String("scale", "full", "full, or smoke for the miniature corpora the tests use")
		outDir    = flag.String("out", "", "directory for <workload>.json and trace-<workload>.json")
		commit    = flag.String("commit", "unknown", "commit to record with the results")
		list      = flag.Bool("list", false, "print the workload names and exit")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		compareTo = flag.String("compare", "", "with -out DIR: compare DIR's results against this directory's (the repeat check)")
		goldenDir = flag.String("golden", "", "print a golden.json from this directory's seed-7 results and exit")
	)
	flag.Parse()
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Println(w.Name)
		}
		return
	case *manifest:
		fmt.Println(string(manifestJSON()))
		return
	case *goldenDir != "":
		if err := goldenFrom(*goldenDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	case *compareTo != "":
		if !compare(*compareTo, *outDir) {
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	out, err := run(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *scale == "smoke", commit: *commit, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	if *outDir != "" {
		suffix := ""
		if out.Trace {
			suffix = "-trace"
		}
		if err := writeJSON(filepath.Join(*outDir, w.Name+suffix+".json"), out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	report(out)
	if out.Failed > 0 {
		os.Exit(1)
	}
}
