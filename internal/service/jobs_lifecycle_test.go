package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tree"
	"repro/internal/workload"
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
	t.Cleanup(srv.CloseStreams)
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
	t.Cleanup(srv.CloseStreams)
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
	if bytes := srv.Stats().JobsPendingBytes; bytes != running.cost {
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
	if bytes := srv.Stats().JobsPendingBytes; bytes != 0 {
		t.Fatalf("pending bytes %d after both jobs ended", bytes)
	}
}

// A retries field, a negative deadline and a deadline time.Duration
// cannot hold are refused at submission; RestoreJobs, whose input is a
// checkpoint file, refuses the same deadlines.
func TestJobRetryFieldValidation(t *testing.T) {
	srv := New(nil)
	t.Cleanup(srv.CloseStreams)
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
	t.Cleanup(srv.CloseStreams)
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
// and completes. One queued job carries its tree as a literal the
// cache knew at decode, not as text: the checkpoint must hold its text
// all the same, and the restored job must answer what a synchronous
// post of the same body answered.
func TestDrainCheckpointRestore(t *testing.T) {
	srv := New(&Options{Workers: 1})
	t.Cleanup(srv.CloseStreams)
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

	// The synchronous post gives the tree's literal an alias.
	const text = "0 -1 1 2 1\n1 0 1 1 3\n"
	body, err := json.Marshal(Request{Tree: text, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want Response
	err = json.NewDecoder(resp.Body).Decode(&want)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("synchronous post: %d %v", resp.StatusCode, err)
	}

	// One running (holds the lone worker, and with it every pool slot),
	// three queued behind it, the last with its literal. Submitted
	// directly — the HTTP submit path needs a pool slot to bound hostile
	// bodies, and the parked runner holds the only one.
	for i := 0; i < 3; i++ {
		if _, ok := srv.submitJob(&Request{Synthetic: &SyntheticSpec{Seed: 1, Nodes: 20}, Procs: i + 1}); !ok {
			t.Fatalf("submit %d refused", i)
		}
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	lit, err := decodeBody(body, srv.cache.knows)
	if err != nil || lit.Tree != "" || lit.lit == nil {
		t.Fatalf("decoding a known literal: %v, Tree %q", err, lit.Tree)
	}
	if _, ok := srv.submitJob(lit); !ok {
		t.Fatal("literal submit refused")
	}
	if got, want := srv.Stats().JobsPendingBytes, int64(4*512+len(lit.lit)); got != want {
		t.Fatalf("pending bytes %d, want %d: the literal is what the job retains", got, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	pending := srv.Drain(ctx)
	// The running job and all three queued jobs were still pending: all
	// four are in the checkpoint, submission order preserved.
	if len(pending) != 4 {
		t.Fatalf("drain checkpointed %d jobs, want 4", len(pending))
	}
	for i, req := range pending {
		if req.Procs != i+1 {
			t.Fatalf("checkpoint order broken: job %d has procs %d", i, req.Procs)
		}
	}
	if got := pending[3]; got.Tree != text || got.lit != nil || lit.Tree != "" {
		t.Fatalf("checkpointed literal job has Tree %q and literal %q; the queued request has Tree %q", got.Tree, got.lit, lit.Tree)
	}
	if _, resp := submitRaw(t, ts, `{"synthetic":{"seed":9,"nodes":20}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	close(block) // let the old server's runners finish

	// A restarted server reads the checkpoint back as the daemon does,
	// from its JSON, and completes it, evaluating for real.
	ckpt, err := json.Marshal(pending)
	if err != nil {
		t.Fatal(err)
	}
	var restored []Request
	if err := json.Unmarshal(ckpt, &restored); err != nil {
		t.Fatal(err)
	}
	srv2 := New(&Options{Workers: 2})
	t.Cleanup(srv2.CloseStreams)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if n := srv2.RestoreJobs(restored); n != 4 {
		t.Fatalf("restored %d jobs, want 4", n)
	}
	for id := uint64(1); id <= 4; id++ {
		if got := pollDone(t, ts2, id); got.Status != JobDone {
			t.Fatalf("restored job %d: %+v", id, got)
		}
	}
	if got := pollDone(t, ts2, 4); !reflect.DeepEqual(*got.Response, want) {
		t.Fatalf("restored literal job answered %+v, the synchronous post %+v", *got.Response, want)
	}
}

// The queue-depth track follows the queue down as well as up: every
// enqueue, start and expiry emits the depth it left, in transition
// order, so consecutive readings differ by one and the last is 0 once
// the queue is empty. Four jobs wait behind one blocked worker slot,
// one of them expires, and the rest run once the slot frees.
func TestQueueDepthTrackReturnsToZero(t *testing.T) {
	srv := New(&Options{Workers: 1})
	t.Cleanup(srv.CloseStreams)
	sub := srv.obs.Subscribe(1 << 12)
	started := make(chan struct{}, 8)
	block := make(chan struct{})
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		started <- struct{}{}
		<-block
		return &Response{Makespan: 1}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := &SyntheticSpec{Seed: 1, Nodes: 20}
	var recs []*jobRecord
	for i, deadline := range []float64{0, 0, 0, 0.05, 0} {
		rec, ok := srv.submitJob(&Request{Synthetic: spec, Deadline: deadline})
		if !ok {
			t.Fatalf("submit %d refused", i)
		}
		recs = append(recs, rec)
		if i == 0 {
			<-started // the first job holds the only slot from here on
		}
	}
	if got := pollDone(t, ts, recs[3].id); got.ErrorStatus != http.StatusGatewayTimeout {
		t.Fatalf("job with a 50 ms deadline: %+v, want failed with 504", got)
	}
	close(block)
	for _, rec := range recs {
		pollDone(t, ts, rec.id)
	}
	if s := srv.Stats(); s.JobsQueued != 0 || s.JobsDone != 4 || s.JobsExpired != 1 {
		t.Fatalf("after the wave: queued %d, done %d, expired %d; want 0, 4, 1", s.JobsQueued, s.JobsDone, s.JobsExpired)
	}

	srv.CloseStreams()
	var depths []int
	kinds := map[obs.Kind]int{}
	for f := range sub.C {
		for _, ev := range f.Events {
			kinds[ev.Kind]++
			if ev.Kind == obs.KindQueueDepth {
				depths = append(depths, int(ev.A))
			}
		}
		f.Release()
	}
	// 5 enqueues, 4 starts and 1 expiry; the track rises to 4 behind
	// the blocked slot.
	if len(depths) != 10 || slices.Max(depths) != 4 || depths[len(depths)-1] != 0 {
		t.Fatalf("queue-depth track %v: want 10 readings peaking at 4 and ending at 0", depths)
	}
	prev := 0
	for i, d := range depths {
		if d != prev+1 && d != prev-1 {
			t.Fatalf("queue-depth track %v: reading %d jumps from %d to %d", depths, i, prev, d)
		}
		prev = d
	}
	if kinds[obs.KindAdmit] != 5 || kinds[obs.KindStart] != 4 || kinds[obs.KindDone] != 5 {
		t.Fatalf("event counts %v: want 5 admit, 4 start, 5 done", kinds)
	}
}

// /schedule reads its body into a recycled buffer, and POST /jobs must
// not: a queued job's request points into its body. Two jobs carry a
// known literal and wait in the evaluator while a stream of /schedule
// posts of a smaller tree cycles the buffers and evicts the jobs' tree,
// so the first job's evaluation has to unquote its literal from the
// body and the drain checkpoint has to unquote the second's. Both must
// read the text that was posted.
func TestJobLiteralSurvivesPooledBodies(t *testing.T) {
	srv := New(&Options{Workers: 3, MaxCachedTrees: 1})
	t.Cleanup(srv.CloseStreams)
	gates := map[int]chan struct{}{4: make(chan struct{}), 5: make(chan struct{})}
	var waiting atomic.Int32
	srv.evalHook = func(req *Request) (*Response, *httpError) {
		waiting.Add(1)
		<-gates[req.Procs]
		return srv.schedule(req)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { // a failed check must not leave a job parked
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	}()
	body := func(nodes, procs int) ([]byte, string) {
		var text strings.Builder
		tr := workload.MustSynthetic(workload.NewRNG(uint64(nodes)), workload.SyntheticOptions{Nodes: nodes})
		if err := tree.Write(&text, tr); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(Request{Tree: text.String(), Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		return b, text.String()
	}
	schedule := func(b []byte) Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/schedule: %d %v", resp.StatusCode, err)
		}
		return r
	}

	first, text := body(300, 4)
	second, _ := body(300, 5)
	want := schedule(first) // gives the literal its alias
	var ids []uint64
	for _, b := range [][]byte{first, second} {
		v, resp := submitRaw(t, ts, string(b))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit: %d", resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	for waiting.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	_, lit, _ := liftTree(first)
	if got, want := srv.Stats().JobsPendingBytes, 2*int64(512+len(lit)); got != want {
		t.Fatalf("pending bytes %d, want %d: the jobs should carry their literals", got, want)
	}

	// Shorter, so a recycled buffer is overwritten in place; from four
	// clients at once, so the buffers of more than one P are recycled.
	other, _ := body(50, 4)
	schedule(other)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(other))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("warm /schedule: %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if srv.cache.knows(sha256.Sum256(lit)) {
		t.Fatal("the jobs' tree is still cached: their literals would not be read")
	}

	close(gates[4])
	if got := pollDone(t, ts, ids[0]); got.Status != JobDone || !reflect.DeepEqual(*got.Response, want) {
		t.Fatalf("job answered %+v, the synchronous post %+v", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	pending := srv.Drain(ctx)
	if len(pending) != 1 || pending[0].Tree != text || pending[0].Procs != 5 {
		t.Fatalf("drain checkpointed %d jobs; want one with the posted text and procs 5", len(pending))
	}
}
