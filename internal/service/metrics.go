package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/obs"
)

// This file is the live-telemetry surface: GET /metricsz exposes the
// service gauges in the Prometheus text format (plus a few Go runtime
// gauges), and GET /streamz streams the cluster event bus as
// server-sent events — frames of job-lifecycle events as they drain
// off the ring, interleaved with a periodic stats snapshot. Both read
// from the same obs.Observer the job API emits into; neither can slow
// an emitter down (a stalled /streamz consumer loses frames, counted
// on /metricsz as treesched_stream_dropped_frames_total).

// uptime is the event clock: seconds since the server was created.
func (s *Server) uptime() float64 {
	return time.Since(s.start).Seconds()
}

// enterFlight counts a worker-slot occupancy and maintains the
// high-water mark /metricsz reports as occupancy.
func (s *Server) enterFlight() {
	v := s.inFlight.Add(1)
	for {
		hw := s.inFlightHW.Load()
		if v <= hw || s.inFlightHW.CompareAndSwap(hw, v) {
			return
		}
	}
}

// recordAdmission counts one evaluation verdict per (heuristic,
// decision). Unknown heuristic names collapse into one label so a
// hostile client cannot grow the metric's cardinality.
func (s *Server) recordAdmission(req *Request, herr *httpError) {
	h := req.heuristic()
	if !slices.Contains(baseline.Names, h) {
		h = "unknown"
	}
	d := "ok"
	switch {
	case herr == nil:
	case herr.status == http.StatusUnprocessableEntity:
		// The paper-relevant verdict: the bound was below the activation
		// order's sequential peak (or the schedule deadlocked).
		d = "unschedulable"
	case herr.status >= http.StatusInternalServerError:
		d = "server_error"
	default:
		d = "client_error"
	}
	s.admMu.Lock()
	mm := s.admissions[h]
	if mm == nil {
		mm = make(map[string]int64)
		s.admissions[h] = mm
	}
	mm[d]++
	s.admMu.Unlock()
}

// runtimeGauges samples the Go runtime metrics /metricsz republishes.
func runtimeGauges() (heapBytes, gcCycles, goroutines uint64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	vals := make([]uint64, len(samples))
	for i := range samples {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			vals[i] = samples[i].Value.Uint64()
		}
	}
	return vals[0], vals[1], vals[2]
}

// statsMetrics is the /metricsz rendering of Stats: one row per field,
// in exposition order. Names, types, help strings and order are a wire
// contract — scripts/obs_smoke.sh and bench/ grep them — pinned by
// TestMetricszCoversStats.
var statsMetrics = []struct {
	name, typ, help string
	get             func(*Stats) float64
}{
	{"treesched_cache_hits_total", "counter", "Prepared-instance cache hits.", func(s *Stats) float64 { return float64(s.CacheHits) }},
	{"treesched_cache_text_hits_total", "counter", "Cache hits recognised by the submitted text, before parsing.", func(s *Stats) float64 { return float64(s.CacheTextHits) }},
	{"treesched_cache_misses_total", "counter", "Prepared-instance cache misses.", func(s *Stats) float64 { return float64(s.CacheMisses) }},
	{"treesched_cached_trees", "gauge", "Canonical trees resident in the content cache.", func(s *Stats) float64 { return float64(s.CachedTrees) }},
	{"treesched_cached_nodes", "gauge", "Total nodes of resident canonical trees.", func(s *Stats) float64 { return float64(s.CachedNodes) }},
	{"treesched_in_flight", "gauge", "Requests holding a worker slot.", func(s *Stats) float64 { return float64(s.InFlight) }},
	{"treesched_in_flight_high_water", "gauge", "Worker-pool occupancy high-water mark.", func(s *Stats) float64 { return float64(s.InFlightHighWater) }},
	{"treesched_workers", "gauge", "Worker-pool width.", func(s *Stats) float64 { return float64(s.Workers) }},
	{"treesched_served_total", "counter", "Completed 200 responses.", func(s *Stats) float64 { return float64(s.Served) }},
	{"treesched_rejected_total", "counter", "4xx verdicts.", func(s *Stats) float64 { return float64(s.Rejected) }},
	{"treesched_jobs_queued", "gauge", "Async jobs waiting for a worker slot.", func(s *Stats) float64 { return float64(s.JobsQueued) }},
	{"treesched_jobs_running", "gauge", "Async jobs mid-evaluation.", func(s *Stats) float64 { return float64(s.JobsRunning) }},
	{"treesched_jobs_pending_bytes", "gauge", "Payload bytes retained by pending jobs.", func(s *Stats) float64 { return float64(s.JobsPendingBytes) }},
	{"treesched_jobs_done_total", "counter", "Async jobs completed successfully.", func(s *Stats) float64 { return float64(s.JobsDone) }},
	{"treesched_jobs_failed_total", "counter", "Async jobs that failed.", func(s *Stats) float64 { return float64(s.JobsFailed) }},
	{"treesched_jobs_tracked", "gauge", "Job records retained for polling.", func(s *Stats) float64 { return float64(s.JobsTracked) }},
	{"treesched_jobs_restarts_total", "counter", "Transient-failure re-queues of async jobs.", func(s *Stats) float64 { return float64(s.JobsRestarts) }},
	{"treesched_jobs_expired_total", "counter", "Async jobs expired at their deadline.", func(s *Stats) float64 { return float64(s.JobsExpired) }},
	{"treesched_jobs_restored_total", "counter", "Jobs admitted from a shutdown checkpoint.", func(s *Stats) float64 { return float64(s.JobsRestored) }},
	{"treesched_wasted_work_seconds_total", "counter", "Evaluation seconds discarded by retried attempts.", func(s *Stats) float64 { return s.WastedWorkSeconds }},
	{"treesched_stream_subscribers", "gauge", "Live /streamz subscriptions.", func(s *Stats) float64 { return float64(s.StreamSubscribers) }},
	{"treesched_stream_dropped_frames_total", "counter", "Event frames dropped to slow /streamz consumers.", func(s *Stats) float64 { return float64(s.StreamDroppedFrames) }},
	{"treesched_stream_dropped_events_total", "counter", "Events refused by a full ring.", func(s *Stats) float64 { return float64(s.StreamDroppedEvents) }},
}

// writeMetric renders one unlabelled sample in the Prometheus text
// exposition format.
func writeMetric(b *bytes.Buffer, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// writeStatsMetrics renders st through the statsMetrics table.
func writeStatsMetrics(b *bytes.Buffer, st *Stats) {
	for _, m := range statsMetrics {
		writeMetric(b, m.name, m.typ, m.help, m.get(st))
	}
}

// handleMetricsz writes every service gauge in the Prometheus text
// exposition format.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b bytes.Buffer
	writeStatsMetrics(&b, &st)
	heapBytes, gcCycles, goroutines := runtimeGauges()
	writeMetric(&b, "treesched_go_heap_objects_bytes", "gauge", "Bytes of live heap objects (runtime/metrics).", float64(heapBytes))
	writeMetric(&b, "treesched_go_gc_cycles_total", "counter", "Completed GC cycles.", float64(gcCycles))
	writeMetric(&b, "treesched_go_goroutines", "gauge", "Live goroutines.", float64(goroutines))

	fmt.Fprintf(&b, "# HELP treesched_admissions_total Evaluation verdicts per heuristic and decision.\n# TYPE treesched_admissions_total counter\n")
	s.admMu.Lock()
	heuristics := make([]string, 0, len(s.admissions))
	for h := range s.admissions {
		heuristics = append(heuristics, h)
	}
	sort.Strings(heuristics)
	for _, h := range heuristics {
		decisions := make([]string, 0, len(s.admissions[h]))
		for d := range s.admissions[h] {
			decisions = append(decisions, d)
		}
		sort.Strings(decisions)
		for _, d := range decisions {
			fmt.Fprintf(&b, "treesched_admissions_total{heuristic=%q,decision=%q} %d\n", h, d, s.admissions[h][d])
		}
	}
	s.admMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// appendEventJSON hand-renders one event (the Kind as its wire name)
// into buf; the hot reuse avoids one encoder allocation per frame.
func appendEventJSON(buf []byte, ev *obs.Event) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendFloat(buf, ev.Time, 'g', -1, 64)
	buf = append(buf, `,"job":`...)
	buf = strconv.AppendInt(buf, int64(ev.Job), 10)
	buf = append(buf, `,"node":`...)
	buf = strconv.AppendInt(buf, int64(ev.Node), 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, '"')
	if ev.A != 0 {
		buf = append(buf, `,"a":`...)
		buf = strconv.AppendFloat(buf, ev.A, 'g', -1, 64)
	}
	if ev.B != 0 {
		buf = append(buf, `,"b":`...)
		buf = strconv.AppendFloat(buf, ev.B, 'g', -1, 64)
	}
	return append(buf, '}')
}

// handleStreamz streams the event bus as server-sent events: one
// "events" message per drained frame (a JSON array of events) and one
// "stats" message per second with the Stats snapshot. The subscription
// has drop-oldest semantics — a consumer that cannot keep up loses
// frames and the loss is counted, but emitters never wait. The stream
// ends at client disconnect, drain, or CloseStreams.
func (s *Server) handleStreamz(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.reject(w, fail(http.StatusNotImplemented, "streaming unsupported by this connection"))
		return
	}
	// The daemon's blanket write timeout would sever a healthy stream;
	// lift it for this response only.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	sub := s.obs.Subscribe(64)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var buf []byte
	for {
		select {
		case f, ok := <-sub.C:
			if !ok {
				return // CloseStreams: the bus is gone
			}
			buf = append(buf[:0], "event: events\ndata: ["...)
			for i := range f.Events {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendEventJSON(buf, &f.Events[i])
			}
			buf = append(buf, "]\n\n"...)
			f.Release()
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		case <-tick.C:
			snap, err := json.Marshal(s.Stats())
			if err != nil {
				return
			}
			buf = append(buf[:0], "event: stats\ndata: "...)
			buf = append(buf, snap...)
			buf = append(buf, "\n\n"...)
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}
