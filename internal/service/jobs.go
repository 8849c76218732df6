package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the asynchronous job API: POST /jobs enqueues a
// scheduling request and returns immediately with an id; GET /jobs/{id}
// polls its lifecycle (queued → running → done/failed). The actual
// evaluation is the same schedule() path the synchronous /schedule
// handler uses — including the content-keyed canonicalisation, so a
// stream of jobs resubmitting the same tree hits the prepared-instance
// cache exactly like synchronous traffic — run on the same bounded
// worker pool, one goroutine per admitted job waiting its turn for a
// slot. Three budgets bound the server's memory: MaxQueuedJobs caps
// jobs that are queued or running and MaxQueuedBytes caps the payload
// bytes those jobs retain (either exhausted answers 429 —
// backpressure, not an unbounded backlog), and MaxTrackedJobs caps
// retained records, with the oldest finished jobs evicted first so
// pollers of recent jobs are never lied to.

// Job lifecycle states reported by GET /jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobView is the JSON shape of one job: the 202 body of POST /jobs and
// the 200 body of GET /jobs/{id}. Response is set once Status is
// "done"; Error/ErrorStatus (plus Bound/MinMemory on admission-control
// failures) once it is "failed".
type JobView struct {
	ID          uint64    `json:"id"`
	Status      string    `json:"status"`
	Response    *Response `json:"response,omitempty"`
	Error       string    `json:"error,omitempty"`
	ErrorStatus int       `json:"error_status,omitempty"`
	Bound       float64   `json:"bound,omitempty"`
	MinMemory   float64   `json:"min_memory,omitempty"`
}

// jobRecord is the stored lifecycle of one job; all fields are guarded
// by the owning store's mutex.
type jobRecord struct {
	id        uint64
	status    string
	cost      int64     // payload bytes retained while queued or running
	req       *Request  // retained while pending, for the shutdown checkpoint
	deadline  time.Time // zero = none
	resp      *Response
	errStatus int
	errBody   errorBody
}

// jobStore tracks job records under the two budgets, and emits each
// transition's events onto obs inside the critical section that makes
// it, so events come in transition order and each QueueDepth is the
// depth its transition left. Event times are seconds since start.
type jobStore struct {
	obs   *obs.Observer
	start time.Time

	mu         sync.Mutex
	byID       map[uint64]*jobRecord
	fifo       []uint64 // insertion order, oldest first, for eviction
	nextID     uint64
	queued     int
	running    int
	bytes      int64 // Σ cost over queued + running jobs
	done       int64
	failed     int64
	expired    int64 // deadline expiries (also counted in failed)
	maxPending int   // queued + running cap
	maxBytes   int64 // queued + running payload-byte cap
	maxTracked int   // retained records cap
}

// newJobStore returns an empty store under the given budgets, which
// Options.withDefaults has already floored.
func newJobStore(maxPending int, maxBytes int64, maxTracked int, ob *obs.Observer) *jobStore {
	return &jobStore{obs: ob, start: time.Now(), byID: make(map[uint64]*jobRecord),
		maxPending: maxPending, maxBytes: maxBytes, maxTracked: maxTracked}
}

// emit records one event of job id (Job = -1 for a queue-depth
// reading); callers hold js.mu.
func (js *jobStore) emit(kind obs.Kind, id int32, a, b float64) {
	js.obs.Emit(kind, time.Since(js.start).Seconds(), id, -1, a, b)
}

// enqueue registers a new queued job retaining cost payload bytes,
// evicting the oldest finished records over the tracked budget. It
// fails (backpressure) when the pending-count or pending-bytes budget
// is exhausted — except that a job is never refused on bytes when the
// queue is empty, so one admissible request cannot wedge. The request
// is retained on the record while the job is pending so a shutdown
// checkpoint can save unfinished work.
func (js *jobStore) enqueue(req *Request, cost int64) (*jobRecord, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.queued+js.running >= js.maxPending {
		return nil, false
	}
	if js.bytes+cost > js.maxBytes && js.queued+js.running > 0 {
		return nil, false
	}
	js.nextID++
	rec := &jobRecord{id: js.nextID, status: JobQueued, cost: cost, req: req}
	if req != nil && req.Deadline > 0 {
		rec.deadline = time.Now().Add(time.Duration(req.Deadline * float64(time.Second)))
	}
	js.bytes += cost
	js.byID[rec.id] = rec
	js.fifo = append(js.fifo, rec.id)
	js.queued++
	js.emit(obs.KindAdmit, int32(rec.id), float64(cost), 0)
	js.emit(obs.KindQueueDepth, -1, float64(js.queued), 0)
	for len(js.byID) > js.maxTracked {
		evicted := false
		for i, id := range js.fifo {
			old := js.byID[id]
			if old == nil || old.status == JobDone || old.status == JobFailed {
				delete(js.byID, id)
				js.fifo = append(js.fifo[:i], js.fifo[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything tracked is pending; the pending cap bounds this
		}
	}
	return rec, true
}

// setRunning moves a queued job to running.
func (js *jobStore) setRunning(rec *jobRecord) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec.status = JobRunning
	js.queued--
	js.running++
	js.emit(obs.KindStart, int32(rec.id), 0, 0)
	js.emit(obs.KindQueueDepth, -1, float64(js.queued), 0)
}

// settle records a pending job's outcome and releases its payload-byte
// reservation and retained request: a running job's evaluation, or the
// expiry of a queued one whose deadline passed before it got a worker
// slot.
func (js *jobStore) settle(rec *jobRecord, resp *Response, herr *httpError) {
	js.mu.Lock()
	defer js.mu.Unlock()
	expired := rec.status == JobQueued
	if expired {
		js.queued--
		js.expired++
	} else {
		js.running--
	}
	js.bytes -= rec.cost
	rec.req = nil
	failed := 0.0
	if herr != nil {
		rec.status, rec.errStatus, rec.errBody = JobFailed, herr.status, herr.body
		js.failed++
		failed = 1
	} else {
		rec.status, rec.resp = JobDone, resp
		js.done++
	}
	js.emit(obs.KindDone, int32(rec.id), 0, failed)
	if expired {
		js.emit(obs.KindQueueDepth, -1, float64(js.queued), 0)
	}
}

// pending returns the retained requests of every queued or running job,
// oldest first, each with its tree as text: the shutdown checkpoint of
// work the drain window did not finish. The text goes into a copy,
// since the job's runner may be reading its request.
func (js *jobStore) pending() []Request {
	js.mu.Lock()
	defer js.mu.Unlock()
	var out []Request
	for _, id := range js.fifo {
		rec := js.byID[id]
		if rec != nil && rec.req != nil && (rec.status == JobQueued || rec.status == JobRunning) {
			out = append(out, rec.req.withText())
		}
	}
	return out
}

// view returns the JSON snapshot of a job.
func (js *jobStore) view(id uint64) (JobView, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec, ok := js.byID[id]
	if !ok {
		return JobView{}, false
	}
	v := JobView{ID: rec.id, Status: rec.status, Response: rec.resp}
	if rec.status == JobFailed {
		v.Error = rec.errBody.Error
		v.ErrorStatus = rec.errStatus
		v.Bound = rec.errBody.Bound
		v.MinMemory = rec.errBody.MinMemory
	}
	return v, true
}

// fill copies the store's gauges and counters into st.
func (js *jobStore) fill(st *Stats) {
	js.mu.Lock()
	defer js.mu.Unlock()
	st.JobsQueued, st.JobsRunning, st.JobsPendingBytes = js.queued, js.running, js.bytes
	st.JobsDone, st.JobsFailed, st.JobsExpired = js.done, js.failed, js.expired
	st.JobsTracked = len(js.byID)
}

// handleJobSubmit enqueues one asynchronous job. The body is decoded
// under a worker-pool slot exactly like /schedule (hostile bytes are as
// reachable here); the evaluation itself runs later, on its own slot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Restart imminent: answer before taking a pool slot (runners may
		// hold them all while they finish) and tell pollers when to retry.
		w.Header().Set("Retry-After", "5")
		s.reject(w, fail(http.StatusServiceUnavailable, "shutting down: new jobs are not accepted"))
		return
	}
	if !s.acquire(r.Context()) {
		return
	}
	defer s.release()
	req, ok := s.decodeRequest(w, r, new(bytes.Buffer))
	if !ok {
		return
	}
	if herr := req.checkDeadline(); herr != nil {
		s.reject(w, herr)
		return
	}
	rec, ok := s.submitJob(req)
	if !ok {
		// 429 is backpressure, not rejection: the queue drains at worker
		// speed, so a short pause is the right client response.
		w.Header().Set("Retry-After", "1")
		s.reject(w, fail(http.StatusTooManyRequests, "job queue full (caps: %d pending jobs, %d pending payload bytes)",
			s.opts.MaxQueuedJobs, s.opts.MaxQueuedBytes))
		return
	}
	writeJSON(w, http.StatusAccepted, JobView{ID: rec.id, Status: JobQueued})
}

// checkDeadline is POST /jobs' verdict on a request's deadline: it
// must be non-negative, and small enough that time.Duration holds it
// (a larger one would wrap negative and expire the job at once).
func (r *Request) checkDeadline() *httpError {
	if r.Deadline < 0 {
		return fail(http.StatusBadRequest, "deadline must be non-negative seconds, got %g", r.Deadline)
	}
	if r.Deadline*float64(time.Second) >= math.MaxInt64 {
		return fail(http.StatusBadRequest, "deadline must be below %g seconds, got %g",
			math.MaxInt64/float64(time.Second), r.Deadline)
	}
	return nil
}

// submitJob enqueues one decoded request and starts its runner; it is
// the shared path of POST /jobs and the checkpoint-restore boot.
func (s *Server) submitJob(req *Request) (*jobRecord, bool) {
	// The retained payload is dominated by the inline tree, as text or as
	// literal; the fixed fields of a Request are a few hundred bytes.
	cost := int64(len(req.Tree)+len(req.lit)) + 512
	rec, ok := s.jobs.enqueue(req, cost)
	if !ok {
		return nil, false
	}
	s.jobsWG.Add(1)
	go s.runJob(rec, req)
	return rec, true
}

// runJob waits for a worker-pool slot, evaluates the job once and
// stores the verdict, 5xx included: the evaluation is a pure function
// of the request, so running it again would repeat the outcome. A
// request deadline bounds the wait for a slot — a job whose turn comes
// too late expires with 504 instead of starting, outside the verdict
// ledger — and an evaluation that has started runs to completion.
// Async completions count into the same ledger as synchronous
// responses, before the job reads as finished.
func (s *Server) runJob(rec *jobRecord, req *Request) {
	defer s.jobsWG.Done()
	// Back-pressure by design: a job without a deadline owes its caller a
	// run, and Drain waits for queued jobs, so it waits as long as it takes.
	ctx, cancel := context.Background(), func() {}
	if !rec.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, rec.deadline)
	}
	ok := s.acquire(ctx)
	cancel()
	if !ok {
		s.jobs.settle(rec, nil, fail(http.StatusGatewayTimeout, "deadline exceeded while queued for a worker slot"))
		return
	}
	s.jobs.setRunning(rec)
	eval := s.schedule
	if s.evalHook != nil {
		eval = s.evalHook
	}
	resp, herr := eval(req)
	s.recordVerdict(req, herr)
	s.release()
	s.jobs.settle(rec, resp, herr)
}

// handleJobGet reports one job's lifecycle. With ?timeline=1 a done job
// that carries a trace renders it as the text Gantt chart instead of
// JSON — the single-tree counterpart of cmd/experiments -timeline.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.reject(w, fail(http.StatusBadRequest, "bad job id %q", r.PathValue("id")))
		return
	}
	v, ok := s.jobs.view(id)
	if !ok {
		s.reject(w, fail(http.StatusNotFound, "unknown job %d (finished jobs are retained up to the tracked-jobs budget)", id))
		return
	}
	if r.URL.Query().Get("timeline") != "" {
		s.writeJobTimeline(w, &v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeJobTimeline renders a finished job's trace as a text Gantt.
func (s *Server) writeJobTimeline(w http.ResponseWriter, v *JobView) {
	if v.Status != JobDone || v.Response == nil {
		s.reject(w, fail(http.StatusConflict, "job %d is %s: a timeline needs a completed evaluation", v.ID, v.Status))
		return
	}
	if len(v.Response.Trace) == 0 {
		s.reject(w, fail(http.StatusUnprocessableEntity, "job %d has no trace: submit it with \"trace\": true", v.ID))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := sim.Gantt(w, v.Response.Trace, v.Response.Makespan, 100); err != nil {
		fmt.Fprintf(w, "timeline rendering failed: %v\n", err)
	}
}
