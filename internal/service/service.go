// Package service is the request-serving layer over the paper's
// schedulers: a long-running HTTP/JSON API (command treeschedd) that
// accepts task trees — as .tree payloads or synthetic/grid instance
// specs — runs the requested heuristic through the discrete-event
// simulator, and returns the makespan, memory behaviour, lower bounds
// and (optionally) the schedule trace. Besides the synchronous
// /schedule endpoint there is an asynchronous job API (jobs.go):
// POST /jobs enqueues the same request shape and returns an id
// immediately, GET /jobs/{id} polls the lifecycle, and /statsz gauges
// the queue.
//
// The service is built for repeated traffic over a working set of
// trees, the way sparse-solver runtimes resubmit the same assembly
// trees with different bounds or heuristics: submissions are
// canonicalised by content (cache.go) onto the sweep engine's
// per-instance memoization, so only the first sight of a tree pays the
// O(n log n) preparation. Every request — parsing and preparation
// included, since hostile bytes reach both — runs on a bounded worker
// pool, and admission control rejects up front — with 422 and the
// numbers in the body — any request whose memory bound is below the
// activation order's sequential peak, the exact class Theorem 1 cannot
// protect from deadlocking a worker.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Options configures a Server. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Procs is the processor count used when a request omits one
	// (default 8, the paper's platform).
	Procs int
	// MemFactor is the default normalised memory bound: bound =
	// MemFactor × the instance's minimal sequential peak (default 2).
	MemFactor float64
	// MaxNodes caps the size of any accepted tree; larger submissions
	// (or specs that would generate larger trees) get 413 (default 2^20).
	MaxNodes int
	// Workers bounds the number of simulations running concurrently;
	// 0 selects GOMAXPROCS.
	Workers int
	// MaxCachedTrees caps the content cache's entry count (default 256);
	// on overflow an arbitrary tree and its memoized artefacts are
	// evicted.
	MaxCachedTrees int
	// MaxCachedNodes caps the content cache's total node count (default
	// 2^23 ≈ 8M — a couple hundred MB of trees plus artefacts), so a
	// client cannot pin MaxCachedTrees × MaxNodes worth of memory by
	// submitting distinct maximal trees. Raised to MaxNodes when set
	// below it, so every accepted tree is cacheable.
	MaxCachedNodes int
	// MaxQueuedJobs caps asynchronous jobs that are queued or running
	// (POST /jobs answers 429 beyond it; default 256).
	MaxQueuedJobs int
	// MaxQueuedBytes caps the payload bytes (dominated by inline .tree
	// text) retained by queued-or-running jobs, so a full queue of
	// near-limit submissions cannot pin MaxQueuedJobs × body-limit of
	// memory the way the synchronous path's worker pool prevents
	// (default 2^28 ≈ 256MB; raised to one body limit so a maximal
	// request can always queue).
	MaxQueuedBytes int64
	// MaxTrackedJobs caps retained job records, finished ones included,
	// so pollers can read results after completion without the daemon
	// accumulating every job ever submitted (default 4096; raised to
	// MaxQueuedJobs when set below it — pending jobs are never evicted).
	MaxTrackedJobs int
}

func (o *Options) withDefaults() Options {
	out := Options{Procs: 8, MemFactor: 2, MaxNodes: 1 << 20, Workers: runtime.GOMAXPROCS(0),
		MaxCachedTrees: 256, MaxCachedNodes: 1 << 23,
		MaxQueuedJobs: 256, MaxQueuedBytes: 1 << 28, MaxTrackedJobs: 4096}
	if o == nil {
		return out
	}
	if o.Procs > 0 {
		out.Procs = o.Procs
	}
	if o.MemFactor > 0 {
		out.MemFactor = o.MemFactor
	}
	if o.MaxNodes > 0 {
		out.MaxNodes = o.MaxNodes
	}
	if o.Workers > 0 {
		out.Workers = o.Workers
	}
	if o.MaxCachedTrees > 0 {
		out.MaxCachedTrees = o.MaxCachedTrees
	}
	if o.MaxCachedNodes > 0 {
		out.MaxCachedNodes = o.MaxCachedNodes
	}
	if o.MaxQueuedJobs > 0 {
		out.MaxQueuedJobs = o.MaxQueuedJobs
	}
	if o.MaxQueuedBytes > 0 {
		out.MaxQueuedBytes = o.MaxQueuedBytes
	}
	if o.MaxTrackedJobs > 0 {
		out.MaxTrackedJobs = o.MaxTrackedJobs
	}
	if out.MaxTrackedJobs < out.MaxQueuedJobs {
		out.MaxTrackedJobs = out.MaxQueuedJobs
	}
	// One maximal request must always be queueable, or the byte budget
	// could deadlock submissions that the node cap admits.
	if lim := bodyLimit(out.MaxNodes); out.MaxQueuedBytes < lim {
		out.MaxQueuedBytes = lim
	}
	// Any accepted tree must be cacheable, or an oversized submission
	// would flush the whole cache and then sit above the budget anyway.
	if out.MaxCachedNodes < out.MaxNodes {
		out.MaxCachedNodes = out.MaxNodes
	}
	return out
}

// Request is one scheduling submission. Exactly one instance source —
// Tree, Synthetic, Grid2D or Grid3D — must be set.
type Request struct {
	// Tree is the instance in the .tree text format.
	Tree string `json:"tree,omitempty"`
	// Synthetic generates an instance with the paper's synthetic
	// distribution (§7.1).
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	// Grid2D / Grid3D factor an n×n (n×n×n) grid under nested dissection
	// and schedule its assembly tree.
	Grid2D *GridSpec `json:"grid2d,omitempty"`
	Grid3D *GridSpec `json:"grid3d,omitempty"`

	// Heuristic is MemBooking (default), Activation or MemBookingRedTree.
	Heuristic string `json:"heuristic,omitempty"`
	// Procs overrides the server's default processor count.
	Procs int `json:"procs,omitempty"`
	// Mem is the absolute memory bound; when 0, MemFactor × the minimal
	// sequential peak is used instead.
	Mem float64 `json:"mem,omitempty"`
	// MemFactor is the normalised bound (ignored when Mem is set); 0
	// selects the server default.
	MemFactor float64 `json:"mem_factor,omitempty"`
	// AO and EO name the activation and execution orders (see
	// order.ByName). AO defaults to memPO; EO defaults to the activation
	// order, as every harness experiment does.
	AO string `json:"ao,omitempty"`
	EO string `json:"eo,omitempty"`
	// Perturb names a duration-perturbation model from
	// perturb.DefaultModels (e.g. "lognormal(0.3)"): the scheduler works
	// from nominal data while the simulator executes the realisation
	// derived from PerturbSeed.
	Perturb     string `json:"perturb,omitempty"`
	PerturbSeed uint64 `json:"perturb_seed,omitempty"`
	// Trace requests the schedule trace (one span per task) in the
	// response.
	Trace bool `json:"trace,omitempty"`

	// Deadline (async jobs only) bounds the wait for a worker slot, in
	// wall-clock seconds from submission: a job still queued at the
	// deadline fails with 504, and an evaluation that has started runs
	// to completion. Zero means no deadline. After a checkpoint restore
	// the clock restarts at the new submission.
	Deadline float64 `json:"deadline,omitempty"`

	// lit is the body's tree literal, escapes and all, when decodeBody
	// found it known and left Tree empty; litKey is its SHA-256 whenever
	// decodeBody lifted one. lit points into the body.
	lit    []byte
	litKey *textDigest
}

// withText returns a copy of r that carries its tree as Tree alone: the
// request decodeWhole returns for the same body. A literal is carried
// only once a request has unquoted it, so it unquotes again.
func (r *Request) withText() Request {
	out := *r
	if r.lit != nil {
		out.Tree, _ = unquoteTree(r.lit)
	}
	out.lit, out.litKey = nil, nil
	return out
}

// heuristic is the requested heuristic, MemBooking when none is named.
func (r *Request) heuristic() string {
	if r.Heuristic == "" {
		return "MemBooking"
	}
	return r.Heuristic
}

// SyntheticSpec generates a synthetic tree (§7.1 distribution).
type SyntheticSpec struct {
	Seed  uint64 `json:"seed"`
	Nodes int    `json:"nodes"`
}

// GridSpec names a regular grid to factor.
type GridSpec struct {
	N            int `json:"n"`
	Amalgamation int `json:"amalgamation,omitempty"`
}

// Response reports one scheduled instance.
type Response struct {
	Nodes       int        `json:"nodes"`
	Heuristic   string     `json:"heuristic"`
	Procs       int        `json:"procs"`
	Mem         float64    `json:"mem"`
	MinMemory   float64    `json:"min_memory"`
	Makespan    float64    `json:"makespan"`
	PeakMem     float64    `json:"peak_mem"`
	PeakBooked  float64    `json:"peak_booked"`
	LowerBound  float64    `json:"lower_bound"`
	ClassicalLB float64    `json:"classical_lb"`
	MemoryLB    float64    `json:"memory_lb"`
	Utilization float64    `json:"utilization"`
	Events      int        `json:"events"`
	Trace       []sim.Span `json:"trace,omitempty"`
}

// Stats is the /statsz payload.
type Stats struct {
	// CacheHits / CacheMisses count prepared-instance cache lookups;
	// CachedTrees and CachedNodes are the current number of canonical
	// trees resident and their total node count. CacheTextHits is the
	// part of CacheHits recognised by the tree literal's bytes alone —
	// the requests whose tree was never unquoted or parsed.
	CacheHits     int `json:"cache_hits"`
	CacheTextHits int `json:"cache_text_hits"`
	CacheMisses   int `json:"cache_misses"`
	CachedTrees   int `json:"cached_trees"`
	CachedNodes   int `json:"cached_nodes"`
	// InFlight counts requests currently holding a worker slot.
	InFlight int64 `json:"in_flight"`
	// Served counts completed 200 responses; Rejected counts 4xx.
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	// Workers is the worker-pool width.
	Workers int `json:"workers"`
	// JobsQueued / JobsRunning / JobsPendingBytes gauge the
	// asynchronous job queue (count and retained payload bytes);
	// JobsDone / JobsFailed count completed async jobs; JobsTracked is
	// the number of job records currently retained for polling.
	JobsQueued       int   `json:"jobs_queued"`
	JobsRunning      int   `json:"jobs_running"`
	JobsPendingBytes int64 `json:"jobs_pending_bytes"`
	JobsDone         int64 `json:"jobs_done"`
	JobsFailed       int64 `json:"jobs_failed"`
	JobsTracked      int   `json:"jobs_tracked"`
	// JobsRestarts is always 0 (an async job is evaluated once: a re-run
	// of a pure evaluation repeats its outcome); it stays because the
	// benchmark's svc_jobs report reads it. JobsExpired counts deadline
	// expiries (a subset of JobsFailed); JobsRestored counts jobs
	// admitted from a shutdown checkpoint.
	JobsRestarts int64 `json:"jobs_restarts"`
	JobsExpired  int64 `json:"jobs_expired"`
	JobsRestored int64 `json:"jobs_restored"`
	// InFlightHighWater is the worker-pool occupancy high-water mark.
	InFlightHighWater int64 `json:"in_flight_high_water"`
	// StreamSubscribers / StreamDroppedFrames / StreamDroppedEvents
	// gauge the /streamz event bus: live subscriptions, frames dropped
	// to slow consumers, events refused by a full ring.
	StreamSubscribers   int    `json:"stream_subscribers"`
	StreamDroppedFrames uint64 `json:"stream_dropped_frames"`
	StreamDroppedEvents uint64 `json:"stream_dropped_events"`
	// CacheAnswerHits is the part of CacheHits answered from the
	// resident tree's stored outcome, without simulating.
	CacheAnswerHits int `json:"cache_answer_hits"`
}

// errorBody is every non-200 payload. Bound and MinMemory are set on
// admission-control rejections (422) so the client can see how far off
// its bound was.
type errorBody struct {
	Error     string  `json:"error"`
	Bound     float64 `json:"bound,omitempty"`
	MinMemory float64 `json:"min_memory,omitempty"`
}

type httpError struct {
	status int
	body   errorBody
}

func fail(status int, format string, args ...any) *httpError {
	return &httpError{status: status, body: errorBody{Error: fmt.Sprintf(format, args...)}}
}

// Server is the scheduling service. Create one with New; it is safe
// for concurrent use.
type Server struct {
	opts  Options
	cache *treeCache
	jobs  *jobStore
	sem   chan struct{}

	inFlight   atomic.Int64
	inFlightHW atomic.Int64
	served     atomic.Int64
	rejected   atomic.Int64
	restored   atomic.Int64
	answerHits atomic.Int64

	// obs is the event bus behind /streamz. Its one emitter is jobs,
	// which writes each job transition's events under its own lock;
	// the job runners are concurrent goroutines, so the ring runs in
	// shared mode.
	obs *obs.Observer

	// admissions counts /schedule verdicts per (heuristic, decision)
	// for /metricsz. Heuristic labels are clamped to the known set so
	// hostile requests cannot grow the metric's cardinality.
	admMu      sync.Mutex
	admissions map[string]map[string]int64

	// draining refuses new async jobs once Drain has been called;
	// drainCh (closed by Drain) ends /streamz responses; jobsWG tracks
	// every job runner goroutine for the drain wait.
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}
	jobsWG    sync.WaitGroup

	// evalHook replaces schedule() on the async path when non-nil
	// (tests substitute a blocking or counting evaluator through it).
	evalHook func(*Request) (*Response, *httpError)
}

// New returns a Server with the given options (nil selects defaults).
func New(opts *Options) *Server {
	o := opts.withDefaults()
	ob := obs.New(&obs.Options{Ring: 1 << 14, Frame: 64})
	return &Server{
		opts:       o,
		cache:      newTreeCache(o.MaxCachedTrees, o.MaxCachedNodes),
		jobs:       newJobStore(o.MaxQueuedJobs, o.MaxQueuedBytes, o.MaxTrackedJobs, ob),
		sem:        make(chan struct{}, o.Workers),
		drainCh:    make(chan struct{}),
		obs:        ob,
		admissions: make(map[string]map[string]int64),
	}
}

// CloseStreams shuts the event bus down: the drain goroutine flushes
// what the ring holds and exits, and every /streamz subscription's
// channel closes so in-flight stream handlers return. Call it as the
// HTTP server begins to shut down — a graceful http.Server.Shutdown
// waits for those handlers — and at the latest before the process
// exits. Emitting stays safe afterwards.
func (s *Server) CloseStreams() {
	s.obs.Close()
}

// Drain stops accepting new asynchronous jobs (POST /jobs answers 503
// with Retry-After) and waits for the pending ones to finish. When ctx
// expires first, the requests of the jobs still pending are returned
// oldest-first — the shutdown checkpoint a restarted daemon can
// resubmit through RestoreJobs.
// Jobs mid-evaluation at expiry are checkpointed too: the evaluation
// is a pure function of the request, so re-running it from scratch
// loses nothing but time (fail-stop semantics).
func (s *Server) Drain(ctx context.Context) []Request {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return s.jobs.pending()
	}
}

// RestoreJobs resubmits checkpointed requests from a previous daemon's
// Drain, in order, and reports how many were admitted (the queue caps
// still apply; a smaller restarted queue keeps the newest work out). A
// checkpoint file is input from outside the process, so a request
// whose deadline POST /jobs would refuse is not admitted either.
func (s *Server) RestoreJobs(reqs []Request) int {
	admitted := 0
	for i := range reqs {
		req := reqs[i]
		if req.checkDeadline() != nil {
			continue
		}
		if _, ok := s.submitJob(&req); ok {
			admitted++
		}
	}
	s.restored.Add(int64(admitted))
	return admitted
}

// Handler returns the HTTP API: POST /schedule, POST /jobs,
// GET /jobs/{id}, GET /healthz, GET /statsz, GET /metricsz,
// GET /streamz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schedule", s.handleSchedule)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /streamz", s.handleStreamz)
	return mux
}

// Health is the /healthz payload: "ok" (200) or "degraded" (503) with
// the reasons. Degraded is early warning for load balancers and
// operators — the service still answers, but new work is near a
// backpressure limit or a restart: the async queue at ≥ 90% of its
// job-count or payload-byte cap, every worker slot busy, or a drain in
// progress.
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// Healthz evaluates the degraded-state rules against the live gauges.
func (s *Server) Healthz() Health {
	var reasons []string
	queued, running, pendingBytes, _, _, _, _ := s.jobs.gauges()
	if pending := queued + running; pending*10 >= s.opts.MaxQueuedJobs*9 {
		reasons = append(reasons, fmt.Sprintf("job queue at %d of %d", pending, s.opts.MaxQueuedJobs))
	}
	if pendingBytes*10 >= s.opts.MaxQueuedBytes*9 {
		reasons = append(reasons, fmt.Sprintf("pending payload bytes at %d of %d", pendingBytes, s.opts.MaxQueuedBytes))
	}
	if s.inFlight.Load() >= int64(s.opts.Workers) {
		reasons = append(reasons, fmt.Sprintf("all %d workers busy", s.opts.Workers))
	}
	if s.draining.Load() {
		reasons = append(reasons, "shutting down")
	}
	if len(reasons) > 0 {
		return Health{Status: "degraded", Reasons: reasons}
	}
	return Health{Status: "ok"}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Healthz()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	hits, textHits, misses, entries, nodes := s.cache.snapshot()
	queued, running, pendingBytes, done, failed, expired, tracked := s.jobs.gauges()
	return Stats{
		CacheHits:           hits,
		CacheTextHits:       textHits,
		CacheMisses:         misses,
		CachedTrees:         entries,
		CachedNodes:         nodes,
		InFlight:            s.inFlight.Load(),
		Served:              s.served.Load(),
		Rejected:            s.rejected.Load(),
		Workers:             s.opts.Workers,
		JobsQueued:          queued,
		JobsRunning:         running,
		JobsPendingBytes:    pendingBytes,
		JobsDone:            done,
		JobsFailed:          failed,
		JobsTracked:         tracked,
		JobsExpired:         expired,
		JobsRestored:        s.restored.Load(),
		InFlightHighWater:   s.inFlightHW.Load(),
		StreamSubscribers:   s.obs.Subscribers(),
		StreamDroppedFrames: s.obs.DroppedFrames(),
		StreamDroppedEvents: s.obs.DroppedEvents(),
		CacheAnswerHits:     int(s.answerHits.Load()),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	// One worker slot per request, taken before the body is even read:
	// buffering and decoding a ~100MB payload is as attacker-reachable
	// as the simulation, so the pool — not the accept loop — must bound
	// all of it. Rejections give the slot back fast, and a client that
	// disconnects while queued stops waiting instead of burning a slot
	// on work nobody will read.
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	s.enterFlight()
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	resp, herr := s.schedule(req)
	s.recordAdmission(req, herr)
	if herr != nil {
		s.reject(w, herr)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) reject(w http.ResponseWriter, e *httpError) {
	if e.status < http.StatusInternalServerError {
		s.rejected.Add(1)
	}
	writeJSON(w, e.status, e.body)
}

// schedule evaluates one request: the HTTP-free core of the handler.
// The caller holds a worker-pool slot for the duration. A valid request
// repeating its tree's last untraced options gets the stored outcome.
func (s *Server) schedule(req *Request) (resp *Response, herr *httpError) {
	r, key, herr := s.resolve(req)
	if herr != nil {
		return nil, herr
	}
	ct, pr := r.e.Tree(), r.e.Prepare()

	procs := req.Procs
	if procs == 0 {
		procs = s.opts.Procs
	}
	if procs < 1 {
		return nil, fail(http.StatusBadRequest, "procs must be positive, got %d", procs)
	}

	ao, aoName := pr.AO, order.NameMemPO
	if req.AO != "" && req.AO != order.NameMemPO {
		o, err := r.e.Order(req.AO)
		if err != nil {
			return nil, fail(http.StatusBadRequest, "bad activation order: %v", err)
		}
		if !o.Topological {
			return nil, fail(http.StatusBadRequest, "activation order %q is not topological", req.AO)
		}
		ao, aoName = o, req.AO
	}
	eo, eoName := ao, aoName
	if req.EO != "" {
		o, err := r.e.Order(req.EO)
		if err != nil {
			return nil, fail(http.StatusBadRequest, "bad execution order: %v", err)
		}
		eo, eoName = o, req.EO
	}

	m := req.Mem
	if m == 0 {
		f := req.MemFactor
		if f == 0 {
			f = s.opts.MemFactor
		}
		if f < 0 {
			return nil, fail(http.StatusBadRequest, "mem_factor must be positive, got %g", f)
		}
		m = f * pr.Peak
	}
	if !(m > 0) || math.IsInf(m, 0) {
		// NaN and +Inf reach here through factor × peak overflow or an
		// instance whose attribute sums overflow; a non-finite bound can
		// only produce a non-encodable result.
		return nil, fail(http.StatusBadRequest, "memory bound must be positive and finite, got %g", m)
	}

	// Admission control: below the activation order's sequential peak,
	// Theorem 1's no-deadlock guarantee is void and a worker could stall
	// to no effect. Reject before any simulation work, with both numbers
	// in the body. (peak(AO) for the default AO is the memoized
	// preparation; a custom AO costs one O(n) scan.)
	needed := pr.Peak
	if ao != pr.AO {
		p, err := order.PeakMemory(ct, ao.Seq)
		if err != nil {
			return nil, fail(http.StatusBadRequest, "bad activation order: %v", err)
		}
		needed = p
	}
	if m < needed {
		return nil, &httpError{status: http.StatusUnprocessableEntity, body: errorBody{
			Error:     fmt.Sprintf("memory bound %g below the activation order's sequential peak %g: the schedule could deadlock", m, needed),
			Bound:     m,
			MinMemory: needed,
		}}
	}

	var model perturb.Model
	if req.Perturb != "" {
		var ok bool
		if model, ok = findModel(req.Perturb); !ok {
			return nil, fail(http.StatusBadRequest, "unknown perturbation model %q (see perturb.DefaultModels)", req.Perturb)
		}
	}

	// Every option is valid and resolved, so an answer stored under the
	// same resolved options is this request's answer. A traced response
	// carries spans an untraced repeat must not get, so a traced request
	// neither reads nor fills the slot; nor is the nothing a panicking
	// evaluation leaves behind stored.
	k := answerKey{heuristic: req.heuristic(), procs: procs, mem: math.Float64bits(m),
		ao: aoName, eo: eoName, perturb: req.Perturb}
	if req.Perturb != "" {
		k.perturbSeed = req.PerturbSeed
	}
	if !req.Trace {
		if a := r.answer.Load(); a != nil && a.key == k {
			s.answerHits.Add(1)
			return a.resp, a.herr
		}
		defer func() {
			if resp != nil || herr != nil {
				r.answer.Store(&answer{key: k, resp: resp, herr: herr})
			}
		}()
	}

	var factors []float64
	if req.Perturb != "" {
		// The instance key is the content digest, so the realisation is a
		// pure function of (request seed, model, tree content) — identical
		// submissions replay identical realisations.
		seed := perturb.Seed(req.PerturbSeed, model, fmt.Sprintf("%016x", key))
		factors = model.Factors(ct.Len(), seed)
	}

	sched, run, err := baseline.New(req.heuristic(), ct, m, ao, eo)
	if errors.Is(err, baseline.ErrUnknown) {
		return nil, fail(http.StatusBadRequest, "%v", err)
	}
	if err != nil {
		return nil, fail(http.StatusBadRequest, "building scheduler: %v", err)
	}
	if factors != nil {
		// The scheduler above was built from — and bounded by — the
		// nominal tree; only the executed durations change. For RedTree
		// the run tree's first Len(ct) nodes map one-to-one onto the
		// nominal tasks, so the nominal factor vector applies.
		run, err = perturb.Apply(run, factors)
		if err != nil {
			return nil, fail(http.StatusInternalServerError, "perturbing: %v", err)
		}
	}
	opts := &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true}
	if req.Trace {
		opts.Trace = &sim.Trace{}
	}
	res, err := sim.Run(run, procs, sched, opts)
	if err != nil {
		var dead *core.ErrDeadlock
		if errors.As(err, &dead) {
			return nil, &httpError{status: http.StatusUnprocessableEntity, body: errorBody{
				Error:     fmt.Sprintf("schedule deadlocked: %v", dead),
				Bound:     m,
				MinMemory: needed,
			}}
		}
		return nil, fail(http.StatusInternalServerError, "simulation: %v", err)
	}

	// Both bounds are O(n) and depend on request-chosen (procs, m), so
	// they are computed inline rather than through the instance cache's
	// lower-bound memo — memoizing per (tree, procs, m) would let a
	// client grow the map without bound by varying its mem value.
	classical := bounds.Classical(ct, procs)
	memLB, _ := bounds.Memory(ct, m)
	resp = &Response{
		Nodes:       ct.Len(),
		Heuristic:   sched.Name(),
		Procs:       procs,
		Mem:         m,
		MinMemory:   pr.Peak,
		Makespan:    res.Makespan,
		PeakMem:     res.PeakMem,
		PeakBooked:  res.PeakBooked,
		LowerBound:  max(classical, memLB),
		ClassicalLB: classical,
		MemoryLB:    memLB,
		Utilization: res.Utilization(procs),
		Events:      res.Events,
	}
	// Finite attributes can still sum past float64 (e.g. times near
	// 1e308): surface that as a client error, not a marshal failure.
	for _, v := range []float64{resp.Makespan, resp.PeakMem, resp.PeakBooked,
		resp.LowerBound, resp.ClassicalLB, resp.MemoryLB, resp.MinMemory} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fail(http.StatusUnprocessableEntity, "result overflows float64: instance attributes too large")
		}
	}
	if opts.Trace != nil {
		// Spans are recorded on the run tree; for RedTree that is the
		// reduction transform, whose first Len(ct) nodes map one-to-one
		// onto the submitted tasks and whose appended fictitious leaves
		// mean nothing to the client — keep only the real tasks, so the
		// trace always has one span per submitted task.
		resp.Trace = make([]sim.Span, 0, ct.Len())
		for _, sp := range opts.Trace.Spans {
			if int(sp.Node) < ct.Len() {
				resp.Trace = append(resp.Trace, sp)
			}
		}
	}
	return resp, nil
}

// resolve maps the request's one instance source to its cache-resident
// tree and content key. A repeat submission lands on the cached entry,
// so every per-instance artefact schedule reads is a cache hit;
// an inline literal seen before is recognised by its digest and not
// unquoted or parsed at all, with the key — and so every response byte
// — the parse would have produced.
func (s *Server) resolve(req *Request) (resident, uint64, *httpError) {
	sources := 0
	inline := req.Tree != "" || len(req.lit) > 0
	if inline {
		sources++
	}
	if req.Synthetic != nil {
		sources++
	}
	if req.Grid2D != nil {
		sources++
	}
	if req.Grid3D != nil {
		sources++
	}
	if sources != 1 {
		return resident{}, 0, fail(http.StatusBadRequest, "want exactly one of tree, synthetic, grid2d, grid3d; got %d", sources)
	}
	var alias *textDigest
	if inline && req.litKey != nil {
		if r, key, ok := s.cache.byTextDigest(*req.litKey); ok {
			return r, key, nil
		}
		alias = req.litKey
	}
	t, herr := s.materialise(req)
	if herr != nil {
		// A literal that fails to parse or validate never gains an alias.
		return resident{}, 0, herr
	}
	r, key := s.cache.canonical(t, alias)
	return r, key, nil
}

// materialise builds the instance tree from the request's source,
// enforcing the node cap before any superlinear work.
func (s *Server) materialise(req *Request) (*tree.Tree, *httpError) {
	switch {
	case req.Tree != "" || len(req.lit) > 0:
		t, err := tree.ParseLimited(req.withText().Tree, s.opts.MaxNodes)
		if err != nil {
			if errors.Is(err, tree.ErrTooLarge) {
				return nil, fail(http.StatusRequestEntityTooLarge, "%v", err)
			}
			return nil, fail(http.StatusBadRequest, "%v", err)
		}
		// The parser checks structure only; untrusted bytes must also
		// carry sane attributes (no NaN, nothing negative).
		if err := t.Validate(); err != nil {
			return nil, fail(http.StatusBadRequest, "%v", err)
		}
		return t, nil
	case req.Synthetic != nil:
		n := req.Synthetic.Nodes
		if n <= 0 {
			return nil, fail(http.StatusBadRequest, "synthetic.nodes must be positive, got %d", n)
		}
		if n > s.opts.MaxNodes {
			return nil, fail(http.StatusRequestEntityTooLarge, "synthetic.nodes %d over the %d-node limit", n, s.opts.MaxNodes)
		}
		t, err := workload.Synthetic(workload.NewRNG(req.Synthetic.Seed), workload.SyntheticOptions{Nodes: n})
		if err != nil {
			return nil, fail(http.StatusBadRequest, "synthetic: %v", err)
		}
		return t, nil
	case req.Grid2D != nil:
		return s.grid(req.Grid2D, 2)
	default:
		return s.grid(req.Grid3D, 3)
	}
}

func (s *Server) grid(g *GridSpec, dim int) (*tree.Tree, *httpError) {
	if g.N <= 0 {
		return nil, fail(http.StatusBadRequest, "grid n must be positive, got %d", g.N)
	}
	// The elimination tree has one node per unknown (n^dim) before
	// amalgamation; reject oversized grids before factoring anything.
	nodes := g.N
	for i := 1; i < dim; i++ {
		if nodes > s.opts.MaxNodes/g.N {
			return nil, fail(http.StatusRequestEntityTooLarge, "grid%dd n=%d over the %d-node limit", dim, g.N, s.opts.MaxNodes)
		}
		nodes *= g.N
	}
	if nodes > s.opts.MaxNodes {
		return nil, fail(http.StatusRequestEntityTooLarge, "grid%dd n=%d (%d unknowns) over the %d-node limit", dim, g.N, nodes, s.opts.MaxNodes)
	}
	am := g.Amalgamation
	if am <= 0 {
		am = 1
	}
	p, perm := sparse.GridND(dim, g.N)
	res, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: am})
	if err != nil {
		return nil, fail(http.StatusBadRequest, "grid%dd: %v", dim, err)
	}
	return res.Tree, nil
}

// findModel resolves a perturbation-model name against the default grid.
func findModel(name string) (perturb.Model, bool) {
	for _, m := range perturb.DefaultModels() {
		if m.Name == name {
			return m, true
		}
	}
	return perturb.Model{}, false
}
