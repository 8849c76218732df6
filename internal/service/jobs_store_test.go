package service

import (
	"net/http"
	"sync"
	"testing"
)

// filled is the Stats the store fills in.
func filled(js *jobStore) Stats {
	var st Stats
	js.fill(&st)
	return st
}

// The pending budget is backpressure: a store whose queued+running
// count is at the cap refuses new jobs until one finishes.
func TestJobStorePendingBudget(t *testing.T) {
	js := newJobStore(2, 1<<20, 10, nil)
	a, ok := js.enqueue(&Request{}, 100)
	if !ok {
		t.Fatal("first enqueue refused")
	}
	b, ok := js.enqueue(&Request{}, 100)
	if !ok {
		t.Fatal("second enqueue refused")
	}
	if _, ok := js.enqueue(&Request{}, 100); ok {
		t.Fatal("enqueue accepted over the pending budget")
	}
	js.setRunning(a)
	if _, ok := js.enqueue(&Request{}, 100); ok {
		t.Fatal("running jobs must still count against the budget")
	}
	js.settle(a, &Response{Makespan: 1}, nil)
	if _, ok := js.enqueue(&Request{}, 100); !ok {
		t.Fatal("enqueue refused after a slot freed")
	}
	js.setRunning(b)
	js.settle(b, nil, &httpError{status: http.StatusUnprocessableEntity, body: errorBody{Error: "nope", Bound: 1, MinMemory: 2}})
	v, ok := js.view(b.id)
	if !ok || v.Status != JobFailed || v.ErrorStatus != http.StatusUnprocessableEntity || v.Bound != 1 || v.MinMemory != 2 {
		t.Fatalf("failed view %+v", v)
	}
	if st := filled(js); st.JobsQueued != 1 || st.JobsRunning != 0 || st.JobsPendingBytes != 100 ||
		st.JobsDone != 1 || st.JobsFailed != 1 || st.JobsTracked != 3 {
		t.Fatalf("gauges %+v", st)
	}
}

// Over the tracked budget the oldest *finished* records are evicted;
// pending records never are.
func TestJobStoreEvictsOldestFinished(t *testing.T) {
	js := newJobStore(4, 1<<20, 4, nil)
	recs := make([]*jobRecord, 0, 3)
	for i := 0; i < 3; i++ {
		r, ok := js.enqueue(&Request{}, 100)
		if !ok {
			t.Fatalf("enqueue %d refused", i)
		}
		js.setRunning(r)
		js.settle(r, &Response{Makespan: float64(i)}, nil)
		recs = append(recs, r)
	}
	pending, ok := js.enqueue(&Request{}, 100)
	if !ok {
		t.Fatal("enqueue refused under budget")
	}
	// Budget now full (4 tracked). Two more enqueues must evict the two
	// oldest finished jobs — and only those.
	for i := 0; i < 2; i++ {
		if _, ok := js.enqueue(&Request{}, 100); !ok {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	if _, ok := js.view(recs[0].id); ok {
		t.Fatal("oldest finished job not evicted")
	}
	if _, ok := js.view(recs[1].id); ok {
		t.Fatal("second-oldest finished job not evicted")
	}
	if _, ok := js.view(recs[2].id); !ok {
		t.Fatal("newest finished job evicted too early")
	}
	if v, ok := js.view(pending.id); !ok || v.Status != JobQueued {
		t.Fatalf("pending job evicted: %v %+v", ok, v)
	}
}

// Options.withDefaults is the one place the budgets are floored: an
// unset or non-positive budget takes its default, the tracked budget
// never falls below the pending budget (or enqueueing could wedge with
// nothing evictable), one maximal body always fits the byte budget, and
// every accepted tree fits the cache.
func TestOptionsBudgetFloors(t *testing.T) {
	o := (&Options{MaxQueuedJobs: 8, MaxTrackedJobs: 2, MaxNodes: 100, MaxQueuedBytes: 1,
		MaxCachedNodes: 10, MaxCachedTrees: -3}).withDefaults()
	if o.MaxTrackedJobs != 8 || o.MaxQueuedBytes != bodyLimit(100) || o.MaxCachedNodes != 100 || o.MaxCachedTrees != 256 {
		t.Fatalf("floored options %+v", o)
	}
	js := newJobStore(o.MaxQueuedJobs, o.MaxQueuedBytes, o.MaxTrackedJobs, nil)
	for i := 0; i < 8; i++ {
		if _, ok := js.enqueue(&Request{}, 100); !ok {
			t.Fatalf("enqueue %d refused under the floored tracked budget", i)
		}
	}
	if tracked := filled(js).JobsTracked; tracked != 8 {
		t.Fatalf("tracked %d, want 8", tracked)
	}
}

// Expiry of a queued job releases its reservation and counts it both
// failed and expired.
func TestJobStoreExpire(t *testing.T) {
	js := newJobStore(4, 1<<20, 10, nil)
	rec, _ := js.enqueue(&Request{}, 100)
	js.settle(rec, nil, fail(http.StatusGatewayTimeout, "deadline"))
	v, _ := js.view(rec.id)
	if v.Status != JobFailed || v.ErrorStatus != http.StatusGatewayTimeout {
		t.Fatalf("expired view: %+v", v)
	}
	if st := filled(js); st.JobsQueued != 0 || st.JobsRunning != 0 || st.JobsPendingBytes != 0 || st.JobsFailed != 1 || st.JobsExpired != 1 {
		t.Fatalf("ledger: %+v", st)
	}
	if got := js.pending(); len(got) != 0 {
		t.Fatalf("expired job still pending: %+v", got)
	}
}

// Concurrent enqueue/finish traffic around a tight tracked budget must
// keep the store consistent under -race: the eviction scan runs inside
// enqueue while finishers mutate records, which is exactly the window
// where a stale read could evict a pending job or corrupt the gauges.
func TestJobStoreConcurrentFinishEviction(t *testing.T) {
	const (
		maxPending = 8
		maxTracked = 10
		workers    = 8
		perWorker  = 200
	)
	js := newJobStore(maxPending, 1<<20, maxTracked, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec, ok := js.enqueue(&Request{}, 64)
				if !ok {
					continue // backpressure under contention is expected
				}
				switch i % 3 {
				case 0:
					js.setRunning(rec)
					js.settle(rec, &Response{}, nil)
				case 1:
					js.setRunning(rec)
					js.settle(rec, nil, fail(http.StatusInternalServerError, "boom"))
				default:
					js.settle(rec, nil, fail(http.StatusGatewayTimeout, "deadline"))
				}
			}
		}(w)
	}
	wg.Wait()
	st := filled(js)
	if st.JobsQueued != 0 || st.JobsRunning != 0 || st.JobsPendingBytes != 0 {
		t.Fatalf("pending state leaked: queued %d running %d bytes %d", st.JobsQueued, st.JobsRunning, st.JobsPendingBytes)
	}
	if st.JobsTracked > maxTracked {
		t.Fatalf("tracked %d over the %d budget", st.JobsTracked, maxTracked)
	}
	if st.JobsDone+st.JobsFailed == 0 {
		t.Fatal("no job completed")
	}
	if got := js.pending(); len(got) != 0 {
		t.Fatalf("%d jobs pending after drain", len(got))
	}
}

// The byte budget refuses further jobs while pending payloads hold it,
// releases on finish, and never wedges a lone maximal request.
func TestJobStoreByteBudget(t *testing.T) {
	js := newJobStore(10, 250, 20, nil)
	a, ok := js.enqueue(&Request{}, 200)
	if !ok {
		t.Fatal("first enqueue refused")
	}
	if _, ok := js.enqueue(&Request{}, 100); ok {
		t.Fatal("enqueue accepted over the byte budget")
	}
	js.setRunning(a)
	if _, ok := js.enqueue(&Request{}, 100); ok {
		t.Fatal("running payloads must still hold the byte budget")
	}
	js.settle(a, &Response{}, nil)
	b, ok := js.enqueue(&Request{}, 100)
	if !ok {
		t.Fatal("enqueue refused after bytes released")
	}
	// An over-budget request on an otherwise empty queue is admitted:
	// the budget is backpressure, not a hard request-size cap (the body
	// limit is).
	js.setRunning(b)
	js.settle(b, &Response{}, nil)
	if _, ok := js.enqueue(&Request{}, 10_000); !ok {
		t.Fatal("lone over-budget request wedged")
	}
	if bytes := filled(js).JobsPendingBytes; bytes != 10_000 {
		t.Fatalf("pending bytes %d, want 10000", bytes)
	}
}
