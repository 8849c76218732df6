package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// These tests drive the async-job lifecycle — one evaluation per job,
// deadline expiry, backpressure, drain-or-checkpoint — through an
// injected evaluator, so a failing or blocked evaluation is
// deterministic instead of depending on a way to make a real
// simulation fail or stall.

// submitRaw posts one job body and decodes the 202 view.
func submitRaw(t *testing.T, ts *httptest.Server, body string) (JobView, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("202 body %q: %v", b, err)
		}
	}
	return v, resp
}

// pollDone polls a job until it leaves the pending states.
func pollDone(t *testing.T, ts *httptest.Server, id uint64) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + strconv.FormatUint(id, 10))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("poll body %q: %v", b, err)
		}
		if v.Status == JobDone || v.Status == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %s", id, v.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// A job is evaluated once and its verdict is final: a 4xx verdict on
// the request and a 5xx failure of the evaluation alike are stored as
// the job's outcome, and neither runs the evaluation again.
func TestJobVerdictEvaluatedOnce(t *testing.T) {
	srv := New(&Options{Workers: 2})
	var calls atomic.Int32
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		calls.Add(1)
		if req.Heuristic == "bad" {
			return nil, fail(http.StatusBadRequest, "deterministic verdict")
		}
		return nil, fail(http.StatusInternalServerError, "evaluation failed")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"synthetic":{"seed":1,"nodes":20}}`, http.StatusInternalServerError},
		{`{"synthetic":{"seed":1,"nodes":20},"heuristic":"bad"}`, http.StatusBadRequest},
	} {
		calls.Store(0)
		v, resp := submitRaw(t, ts, c.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit %d", c.body, resp.StatusCode)
		}
		got := pollDone(t, ts, v.ID)
		if got.Status != JobFailed || got.ErrorStatus != c.status {
			t.Fatalf("%s: %+v, want failed with %d", c.body, got, c.status)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("%s: evaluated %d times, want 1", c.body, n)
		}
	}
	if s := srv.Stats(); s.JobsFailed != 2 || s.Rejected != 1 || s.JobsRestarts != 0 {
		t.Fatalf("ledger: failed %d, rejected %d, restarts %d; want 2, 1, 0", s.JobsFailed, s.Rejected, s.JobsRestarts)
	}
}

// A deadline bounds the wait for a worker slot: a job queued behind a
// blocked slot expires with 504 and releases its bytes, while a job
// whose deadline passes mid-evaluation runs to completion.
func TestJobDeadlineExpires(t *testing.T) {
	srv := New(&Options{Workers: 1})
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		started <- struct{}{}
		<-block
		return &Response{Makespan: 1}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submitted directly: the HTTP submit path needs a pool slot, and the
	// running job holds the only one.
	req := func() *Request { return &Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 20}, Deadline: 0.05} }
	running, ok := srv.submitJob(req())
	if !ok {
		t.Fatal("first submit refused")
	}
	<-started
	queued, ok := srv.submitJob(req())
	if !ok {
		t.Fatal("second submit refused")
	}
	got := pollDone(t, ts, queued.id)
	if got.Status != JobFailed || got.ErrorStatus != http.StatusGatewayTimeout {
		t.Fatalf("queued job: %+v, want failed with 504", got)
	}
	if _, _, bytes, _, _, _, _ := srv.jobs.gauges(); bytes != running.cost {
		t.Fatalf("pending bytes %d after the expiry, want the running job's %d", bytes, running.cost)
	}
	// A 504 expiry is not a 4xx verdict: it shows in JobsExpired only.
	if s := srv.Stats(); s.Rejected != 0 || s.JobsExpired != 1 {
		t.Fatalf("after the expiry: rejected %d, expired %d; want 0, 1", s.Rejected, s.JobsExpired)
	}

	// The running job's deadline passed while it waited on block.
	close(block)
	if got := pollDone(t, ts, running.id); got.Status != JobDone {
		t.Fatalf("job past its deadline mid-evaluation: %+v, want done", got)
	}
	if _, _, bytes, _, _, _, _ := srv.jobs.gauges(); bytes != 0 {
		t.Fatalf("pending bytes %d after both jobs ended", bytes)
	}
}

// A retries field, a negative deadline and a deadline time.Duration
// cannot hold are refused at submission; RestoreJobs, whose input is a
// checkpoint file, refuses the same deadlines.
func TestJobRetryFieldValidation(t *testing.T) {
	srv := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct{ body, want string }{
		{`{"synthetic":{"seed":1,"nodes":20},"retries":-1}`, `unknown field \"retries\"`},
		{`{"synthetic":{"seed":1,"nodes":20},"deadline":-2}`, "deadline must be non-negative seconds, got -2"},
		{`{"synthetic":{"seed":1,"nodes":20},"deadline":1e10}`, "deadline must be below 9.223372036854776e+09 seconds, got 1e+10"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), c.want) {
			t.Fatalf("%s: %d %s, want 400 %q", c.body, resp.StatusCode, b, c.want)
		}
	}
	spec := &SyntheticSpec{Seed: 1, Nodes: 20}
	if n := srv.RestoreJobs([]Request{
		{Synthetic: spec, Deadline: -2},
		{Synthetic: spec, Deadline: 1e10},
		{Synthetic: spec, Deadline: 60},
	}); n != 1 {
		t.Fatalf("restored %d jobs, want only the one with a valid deadline", n)
	}
	if got := pollDone(t, ts, 1); got.Status != JobDone {
		t.Fatalf("restored job: %+v", got)
	}
}

// Backpressure answers carry Retry-After so clients pace themselves.
// Two workers: one slot is parked in the blocked runner, the other
// serves the HTTP submit path.
func TestJobBackpressureRetryAfter(t *testing.T) {
	srv := New(&Options{Workers: 2, MaxQueuedJobs: 1})
	block := make(chan struct{})
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		<-block
		return &Response{}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v, resp := submitRaw(t, ts, `{"synthetic":{"seed":1,"nodes":20}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp = submitRaw(t, ts, `{"synthetic":{"seed":2,"nodes":20}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(block)
	pollDone(t, ts, v.ID)
}

// Drain refuses new jobs (503 + Retry-After), finishes what fits in
// the window, and checkpoints the rest — which a fresh server restores
// and completes.
func TestDrainCheckpointRestore(t *testing.T) {
	srv := New(&Options{Workers: 1})
	block := make(chan struct{})
	var calls atomic.Int32
	hook := func(req *Request) (*Response, *httpError) {
		calls.Add(1)
		<-block
		return &Response{Makespan: float64(req.Procs)}, nil
	}
	srv.evalHook = hook
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One running (holds the lone worker, and with it every pool slot),
	// two queued behind it. Submitted directly — the HTTP submit path
	// needs a pool slot to bound hostile bodies, and the parked runner
	// holds the only one.
	for i := 0; i < 3; i++ {
		if _, ok := srv.submitJob(&Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 20}, Procs: i + 1}); !ok {
			t.Fatalf("submit %d refused", i)
		}
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	pending := srv.Drain(ctx)
	// The running job and both queued jobs were still pending: all three
	// are in the checkpoint, submission order preserved.
	if len(pending) != 3 {
		t.Fatalf("drain checkpointed %d jobs, want 3", len(pending))
	}
	for i, req := range pending {
		if req.Procs != i+1 {
			t.Fatalf("checkpoint order broken: job %d has procs %d", i, req.Procs)
		}
	}
	if _, resp := submitRaw(t, ts, `{"synthetic":{"seed":9,"nodes":20}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	close(block) // let the old server's runners finish

	// A restarted server resubmits the checkpoint and completes it.
	srv2 := New(&Options{Workers: 2})
	srv2.evalHook = hook
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if n := srv2.RestoreJobs(pending); n != 3 {
		t.Fatalf("restored %d jobs, want 3", n)
	}
	for id := uint64(1); id <= 3; id++ {
		if got := pollDone(t, ts2, id); got.Status != JobDone {
			t.Fatalf("restored job %d: %+v", id, got)
		}
	}
}
