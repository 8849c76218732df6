package main

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// schemaVersion names the meaning of every metric and workload below.
// Bump it whenever a definition, an input size or a unit changes, so a
// trajectory is never compared across incompatible schemas.
const schemaVersion = 1

// Metric classes: what kind of quantity a value is. Host values are
// wall-clock measurements of this machine; simulated values are outputs
// of the simulation (a pure function of the seed) and counts are event
// tallies.
const (
	classHost  = "host"
	classSim   = "simulated"
	classCount = "count"
)

// metricDef is one named metric of BENCHMARK.json. Exact metrics are
// pure functions of (code, seed): -check-repeat fails when two runs of
// the same code disagree on one at all.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the median
	Class  string
	Exact  bool
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined in terms
// of the workload's operation: one multitree.Run pass, one HTTP request,
// one async job submit→done, one cold figure-suite pass.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Class: classHost},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Class: classHost},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Class: classHost},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Class: classHost},
}

func host(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Class: classHost}
}

func share(name string) metricDef {
	return metricDef{Name: name, Unit: "ratio", Better: "lower", Class: classHost}
}

func count(name string, exact bool) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Class: classCount, Exact: exact}
}

func simulated(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Class: classSim, Exact: true}
}

// perLayer lists the single-layer metrics of the traced pass, named
// after the module they measure. Host timings are measured on every
// workload (the stage probes replay each workload's own trees);
// workload-specific breakdowns are ratios or counts and read 0 where
// the layer is not on the workload's path.
var perLayer = []metricDef{
	// The request pipeline, stage by stage, on the workload's own trees.
	host("service.decode_ms", "ms"),
	host("tree.parse_ms", "ms"),
	host("workload.generate_ms", "ms"),
	host("order.prepare_ms", "ms"),
	host("core.build_ms", "ms"),
	host("sim.run_ms", "ms"),
	host("bounds.ms", "ms"),
	host("service.encode_ms", "ms"),
	host("service.handler_ms", "ms"),
	host("service.unattributed_ms", "ms"),
	{Name: "service.attributed_share", Unit: "ratio", Better: "higher", Class: classHost},

	// The scheduler core and the event heap, replayed over the corpus.
	host("core.sched_ns_per_node", "ns"),
	host("core.pool_cycle_ns", "ns"),
	host("core.checkpoint_ns_per_node", "ns"),
	host("core.restore_ns_per_node", "ns"),
	host("pqueue.ns_per_event", "ns"),
	// §5.1 flatness: sched ns/node of one big tree over the 10k random tree.
	share("core.flat_ratio.n100k"),
	share("core.flat_ratio.n1M"),
	share("core.flat_ratio.chain1M"),
	share("core.flat_ratio.star1M"),

	// Service counters across the timed loop (svc_* workloads).
	{Name: "service.handler_share", Unit: "ratio", Better: "higher", Class: classHost},
	{Name: "service.cache_hit_share", Unit: "ratio", Better: "higher", Class: classCount},
	count("service.cached_trees", false),
	count("service.served", false),
	count("service.rejected", true),
	count("service.in_flight_high_water", false),
	count("service.jobs_done", false),
	count("service.jobs_restarts", true),
	{Name: "service.polls_per_job", Unit: "ratio", Better: "lower", Class: classCount},
	{Name: "service.bytes_per_req", Unit: "B", Better: "lower", Class: classCount, Exact: true},

	// The stream event loop (stream_* workloads); the four shares sum to 1.
	share("multitree.core_share"),
	share("multitree.pqueue_share"),
	share("multitree.admit_share"),
	share("multitree.glue_share"),
	count("multitree.events", true),
	count("multitree.admit_calls", true),
	count("multitree.admissions", true),
	{Name: "multitree.admit_yield", Unit: "ratio", Better: "higher", Class: classCount, Exact: true},
	{Name: "multitree.queue_len_mean", Unit: "count", Better: "lower", Class: classCount, Exact: true},
	count("multitree.queue_len_max", true),
	// ns/event of an 8000-job backlog stream over a 500-job one.
	share("multitree.superlinearity"),
	simulated("multitree.sim_makespan", "simtime", "lower"),
	simulated("multitree.sim_utilization", "ratio", "higher"),
	simulated("multitree.sim_mean_bsld", "ratio", "lower"),
	simulated("faults.restarts", "count", "lower"),
	simulated("faults.checkpoints", "count", "lower"),
	simulated("faults.failed_jobs", "count", "lower"),
	simulated("faults.wasted_work_share", "ratio", "lower"),

	// The telemetry hook on the stream loop.
	share("obs.overhead_share"),
	count("obs.dropped_events", false),
	count("obs.events", true),
	count("obs.events_admit", true),
	count("obs.events_backfill", true),
	count("obs.events_start", true),
	count("obs.events_finish", true),
	count("obs.events_fault", true),
	count("obs.events_restart", true),
	count("obs.events_checkpoint", true),
	count("obs.events_queue", true),
	count("obs.events_done", true),

	// The sweep engine (sweep_paper).
	count("harness.cells_requested", true),
	count("harness.cells_computed", true),
	{Name: "harness.cell_hit_share", Unit: "ratio", Better: "higher", Class: classCount, Exact: true},
	count("harness.prep_computed", true),
	share("harness.exp_share.fig2"),
	share("harness.exp_share.fig10"),
	share("harness.exp_share.robust"),
	share("harness.exp_share.moldable"),
	share("harness.exp_share.dist"),
	{Name: "harness.parallel_speedup", Unit: "ratio", Better: "higher", Class: classHost},

	// Whole-process diagnostics, every workload.
	host("op_p95_ms", "ms"),
	host("op_p99_ms", "ms"),
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Class: classHost},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Class: classHost},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Class: classHost},
	host("runtime.gc_pause_ms", "ms"),
	host("runtime.peak_rss_mb", "MB"),
	share("trace.overhead_share"),
}

// sample is one reported value with the spread it was read from.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// summarize reduces timings to median, quartiles and sample count.
func summarize(xs []float64, unit string) sample {
	if len(xs) == 0 {
		return sample{Unit: unit}
	}
	return sample{
		Value: stats.Median(xs), Unit: unit,
		Q1: stats.Quantile(xs, 0.25), Q3: stats.Quantile(xs, 0.75), N: len(xs),
	}
}

// results collects a run's metrics. Named metrics must be declared in
// endToEnd or perLayer; extras are diagnostics printed in the report
// and the out/ file but not part of BENCHMARK.json.
type results struct {
	named  map[string]sample
	extras map[string]sample
	units  map[string]string
}

func newResults() *results {
	r := &results{named: map[string]sample{}, extras: map[string]sample{}, units: map[string]string{}}
	for _, d := range endToEnd {
		r.units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		r.units[d.Name] = d.Unit
	}
	return r
}

func (r *results) unit(name string) string {
	u, ok := r.units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in metrics.go", name))
	}
	return u
}

func (r *results) set(name string, v float64) {
	r.named[name] = sample{Value: v, Unit: r.unit(name)}
}

func (r *results) setSamples(name string, xs []float64) {
	r.named[name] = summarize(xs, r.unit(name))
}

func (r *results) extra(name, unit string, v float64) {
	r.extras[name] = sample{Value: v, Unit: unit}
}

func (r *results) value(name string) float64 { return r.named[name].Value }

// final is the contract's metrics object: every declared metric of the
// requested group, 0 where the workload does not exercise the layer.
func (r *results) final(defs []metricDef) map[string]sample {
	out := make(map[string]sample, len(defs))
	for _, d := range defs {
		s, ok := r.named[d.Name]
		if !ok {
			s = sample{Unit: d.Unit}
		}
		out[d.Name] = s
	}
	return out
}

func sortedKeys(m map[string]sample) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
