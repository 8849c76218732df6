package multitree

import (
	"repro/internal/stats"
)

// DefaultBSLDThreshold is the bounded-slowdown damping threshold τ:
// response/runtime ratios of jobs shorter than τ are measured against τ
// instead, so near-zero jobs cannot dominate the slowdown statistics.
// The corpora's task times are O(100), so τ = 10 damps only genuinely
// tiny jobs.
const DefaultBSLDThreshold = 10.0

// Metrics aggregates a Result into the job-stream quantities the
// `multi` experiment tabulates.
type Metrics struct {
	// Jobs is the number of completed jobs.
	Jobs int
	// Response summarises response times (finish − arrival).
	Response stats.Summary
	// BSLD summarises bounded slowdowns at threshold τ.
	BSLD stats.Summary
	// Utilization is busy-time over p × makespan.
	Utilization float64
	// AvgQueue and MaxQueue are the time-averaged and maximum admission
	// queue depths.
	AvgQueue float64
	MaxQueue int
	// PeakReservedFraction is the peak Σ active slices over the pool.
	PeakReservedFraction float64
	// Fault-mode aggregates (zero on fault-free runs): jobs that
	// exhausted retries, restarts, checkpoints taken, and the fraction of
	// processor-busy time that never committed.
	FailedJobs     int
	Restarts       int
	Checkpoints    int
	WastedFraction float64
}

// Metrics computes the aggregate job-stream metrics of the run on a
// p-processor, mem-sized cluster with bounded-slowdown threshold tau
// (≤ 0 selects DefaultBSLDThreshold).
func (r *Result) Metrics(p int, mem, tau float64) Metrics {
	if tau <= 0 {
		tau = DefaultBSLDThreshold
	}
	resp := make([]float64, 0, len(r.Jobs))
	bsld := make([]float64, 0, len(r.Jobs))
	completed := 0
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.Failed {
			// Failed jobs never completed: their response/slowdown is
			// undefined, so they count separately instead of skewing the
			// summaries.
			continue
		}
		completed++
		resp = append(resp, j.Response())
		bsld = append(bsld, j.BoundedSlowdown(tau))
	}
	m := Metrics{
		Jobs:        completed,
		Response:    stats.Summarize(resp),
		BSLD:        stats.Summarize(bsld),
		Utilization: r.Utilization(p),
		AvgQueue:    r.AvgQueue,
		MaxQueue:    r.MaxQueue,
		FailedJobs:  r.FailedJobs,
		Restarts:    r.Restarts,
		Checkpoints: r.Checkpoints,
	}
	if r.BusyTime > 0 {
		m.WastedFraction = r.WastedWork / r.BusyTime
	}
	if mem > 0 {
		m.PeakReservedFraction = r.PeakReserved / mem
	}
	return m
}
