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

// These tests drive the async-job fault-tolerance path — retry with
// backoff, deadline expiry, drain-or-checkpoint — through an injected
// evaluator, so transient failures are deterministic instead of
// depending on a way to make a real simulation fail transiently.

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

// A job whose first attempts fail transiently (5xx) is requeued and
// retried with its attempt history preserved; it succeeds within its
// retry budget and counts as served exactly once.
func TestJobRetriesTransientFailure(t *testing.T) {
	srv := New(&Options{Workers: 2})
	var calls atomic.Int32
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		if calls.Add(1) <= 2 {
			return nil, fail(http.StatusInternalServerError, "transient backend loss")
		}
		return &Response{Makespan: 42}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v, resp := submitRaw(t, ts, `{"synthetic":{"seed":1,"nodes":20},"retries":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	got := pollDone(t, ts, v.ID)
	if got.Status != JobDone || got.Response == nil || got.Response.Makespan != 42 {
		t.Fatalf("retried job did not recover: %+v", got)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
	if s := srv.Stats(); s.Served != 1 || s.JobsFailed != 0 {
		t.Fatalf("ledger after recovery: %+v", s)
	}
}

// Retry exhaustion surfaces the last transient error; deterministic
// 4xx verdicts are never retried at all.
func TestJobRetryExhaustionAndNo4xxRetry(t *testing.T) {
	srv := New(&Options{Workers: 2})
	var calls atomic.Int32
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		calls.Add(1)
		if req.Heuristic == "bad" {
			return nil, fail(http.StatusBadRequest, "deterministic verdict")
		}
		return nil, fail(http.StatusInternalServerError, "always down")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v, _ := submitRaw(t, ts, `{"synthetic":{"seed":1,"nodes":20},"retries":2}`)
	got := pollDone(t, ts, v.ID)
	if got.Status != JobFailed || got.ErrorStatus != http.StatusInternalServerError || got.Attempts != 3 {
		t.Fatalf("exhausted job: %+v", got)
	}

	calls.Store(0)
	v, _ = submitRaw(t, ts, `{"synthetic":{"seed":1,"nodes":20},"heuristic":"bad","retries":5}`)
	got = pollDone(t, ts, v.ID)
	if got.Status != JobFailed || got.ErrorStatus != http.StatusBadRequest || got.Attempts != 1 {
		t.Fatalf("4xx job retried: %+v", got)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("4xx evaluated %d times", n)
	}
}

// A deadline bounds the whole pending life: a job stuck in transient
// failures expires with 504 instead of burning its full retry budget.
func TestJobDeadlineExpires(t *testing.T) {
	srv := New(&Options{Workers: 2})
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		return nil, fail(http.StatusInternalServerError, "always down")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Backoff after the first failure is ≥ 100ms; the 50ms deadline
	// expires during it.
	v, _ := submitRaw(t, ts, `{"synthetic":{"seed":1,"nodes":20},"retries":1000,"deadline":0.05}`)
	got := pollDone(t, ts, v.ID)
	if got.Status != JobFailed || got.ErrorStatus != http.StatusGatewayTimeout {
		t.Fatalf("deadline job: %+v", got)
	}
	if got.Attempts < 1 || got.Attempts > 3 {
		t.Fatalf("deadline job burned %d attempts in 50ms", got.Attempts)
	}
	if _, _, bytes, _, _, _ := srv.jobs.gauges(); bytes != 0 {
		t.Fatalf("expired job left %d pending bytes reserved", bytes)
	}
	// A 504 expiry is not a 4xx verdict: it shows in JobsExpired only.
	if s := srv.Stats(); s.Rejected != 0 || s.JobsExpired != 1 {
		t.Fatalf("after the expiry: rejected %d, expired %d; want 0, 1", s.Rejected, s.JobsExpired)
	}
}

// Negative retries/deadline are rejected at submission.
func TestJobRetryFieldValidation(t *testing.T) {
	srv := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"synthetic":{"seed":1,"nodes":20},"retries":-1}`,
		`{"synthetic":{"seed":1,"nodes":20},"deadline":-2}`,
	} {
		if _, resp := submitRaw(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
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
