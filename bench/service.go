package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/workload"
)

type svcMode int

const (
	inlineWarm svcMode = iota // POST /schedule, inline .tree text, every request a cache hit
	specCold                  // POST /schedule, distinct synthetic specs, every request a miss
	asyncJobs                 // POST /jobs waves polled to completion
)

const (
	jobWave      = 32                     // jobs a client submits before it starts polling
	pollInterval = 500 * time.Microsecond // pause after a poll that read "queued" or "running"
	coldPrefill  = 256                    // service.Options.MaxCachedTrees: set-up fills the cache so every timed miss also evicts
	coldVerify   = 50                     // every coldVerify-th cold response is recomputed directly
)

// svcBench drives an in-process treeschedd over a loopback listener
// with closed-loop clients: the daemon's callers are solvers and
// workflow engines that block on the reply before executing the tree,
// so a slow server receives less load.
type svcBench struct {
	name  string
	mode  svcMode
	count int // distinct trees of the working set
	nodes int // nodes per tree

	clients int
	srv     *service.Server
	http    *http.Server
	url     string
	client  *http.Client
	trees   []*tree.Tree
	bodies  [][]byte
	expect  []*service.Response // first-sight response per tree
	hashes  []uint64            // and the digest of its bytes
	nextKey atomic.Uint64       // specCold: last synthetic seed handed out
	delta   service.Stats       // counters across the last timed loop
	polls   int                 // asyncJobs: polls of the last loop
}

// clientCount is the closed loop's width: two callers, fewer on a
// one-CPU host, never more connections than processors.
func clientCount() int { return min(2, runtime.NumCPU()) }

func (b *svcBench) setup(seed uint64, smoke bool) error {
	b.clients = clientCount()
	count, nodes := b.count, b.nodes
	if smoke {
		count, nodes = max(2, count/16), nodes/10
	}
	b.srv = service.New(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.http = &http.Server{Handler: b.srv.Handler()}
	go b.http.Serve(ln) // returns when close() closes the server
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.clients, MaxConnsPerHost: b.clients}}

	b.trees, b.bodies, b.expect, b.hashes = nil, nil, nil, nil
	if b.mode == specCold {
		// Fill the content cache, so that from the first timed request on
		// every miss also pays the eviction sweep: the steady state of a
		// working set larger than the cache.
		prefill := coldPrefill
		if smoke {
			prefill = 8
		}
		b.nextKey.Store(seed << 32)
		for i := 0; i < prefill; i++ {
			if _, _, err := b.call("/schedule", specBody(b.nextKey.Add(1), nodes), http.StatusOK); err != nil {
				return err
			}
		}
		b.nodes = nodes
		return nil
	}
	for i := 0; i < count; i++ {
		t, err := workload.Synthetic(workload.NewRNG(seed*1000003+uint64(i)), workload.SyntheticOptions{Nodes: nodes})
		if err != nil {
			return err
		}
		body := inlineBody(treeText(t))
		// First sight: the tree enters the cache and pays its preparation.
		raw, _, err := b.call("/schedule", body, http.StatusOK)
		if err != nil {
			return err
		}
		var resp service.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		b.trees, b.bodies = append(b.trees, t), append(b.bodies, body)
		b.expect, b.hashes = append(b.expect, &resp), append(b.hashes, digest(raw))
	}
	return nil
}

func (b *svcBench) close() {
	if b.http == nil {
		return
	}
	b.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	b.srv.Drain(ctx)
	cancel()
	b.srv.CloseStreams()
	b.client.CloseIdleConnections()
	b.http, b.srv, b.trees, b.bodies = nil, nil, nil, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// call sends one request (a POST when body is non-nil) and reads the
// whole reply; the returned duration is what the caller waited.
func (b *svcBench) call(path string, body []byte, want int) ([]byte, time.Duration, error) {
	method, payload := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, payload = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.url+path, payload)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != want {
		return raw, wall, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, raw)
	}
	return raw, wall, nil
}

// invariants checks what must hold of any answer: every task ran, the
// memory bound held, and the makespan respects the lower bound.
func invariants(r *service.Response) string {
	switch {
	case r.Events != r.Nodes:
		return fmt.Sprintf("events %d != nodes %d", r.Events, r.Nodes)
	case r.PeakMem > r.Mem*(1+1e-9):
		return fmt.Sprintf("peak_mem %g over mem %g", r.PeakMem, r.Mem)
	case r.Makespan < r.LowerBound*(1-1e-9):
		return fmt.Sprintf("makespan %g under lower_bound %g", r.Makespan, r.LowerBound)
	}
	return ""
}

// warm checks first-sight answers against the layers called directly
// (every 8th tree), then runs the loop briefly so connections exist.
func (b *svcBench) warm(chk *checker) error {
	for i := 0; i < len(b.trees); i += 8 {
		want, err := directResponse(b.trees[i])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, b.expect[i]) {
			chk.recheck(fmt.Sprintf("%s: tree %d: service answered %+v, direct run gives %+v", b.name, i, *b.expect[i], *want))
		}
	}
	b.loop(100*time.Millisecond, chk, nil)
	return nil
}

func (b *svcBench) timed(d time.Duration, chk *checker) (timing, error) {
	before := b.srv.Stats()
	tm := b.loop(d, chk, nil)
	after := b.srv.Stats()
	b.delta = service.Stats{
		CacheHits: after.CacheHits - before.CacheHits, CacheMisses: after.CacheMisses - before.CacheMisses,
		CachedTrees: after.CachedTrees, Served: after.Served - before.Served,
		Rejected: after.Rejected - before.Rejected, InFlightHighWater: after.InFlightHighWater,
		JobsDone: after.JobsDone - before.JobsDone, JobsRestarts: after.JobsRestarts - before.JobsRestarts,
	}
	return tm, nil
}

// clientRun is what one client of a loop measured and checked.
type clientRun struct {
	lat   []float64 // ms, one per successful operation
	chk   checker
	polls int
	cold  []coldSample // answers to recompute once the loop is over
}

// loop runs the closed loop for d with one goroutine and one connection
// per client. With tracers (one per client) every call is spanned.
func (b *svcBench) loop(d time.Duration, chk *checker, trs []*tracer) timing {
	runs := make([]clientRun, b.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			for k := 0; time.Since(start) < d; k++ {
				if b.mode == asyncJobs {
					b.wave(c, k, tr, &runs[c])
				} else {
					b.request(c, k, tr, &runs[c])
				}
			}
		}(c)
	}
	wg.Wait()
	tm := timing{busy: time.Since(start)}
	b.polls = 0
	for i := range runs {
		run := &runs[i]
		tm.latMS = append(tm.latMS, run.lat...)
		chk.merge(&run.chk)
		b.polls += run.polls
		for _, cs := range run.cold {
			chk.recheck(b.verifyCold(cs))
		}
	}
	tm.allocOps = len(tm.latMS)
	return tm
}

type coldSample struct {
	seed uint64
	resp service.Response
}

func (b *svcBench) verifyCold(cs coldSample) string {
	t, err := workload.Synthetic(workload.NewRNG(cs.seed), workload.SyntheticOptions{Nodes: b.nodes})
	if err != nil {
		return err.Error()
	}
	want, err := directResponse(t)
	if err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(*want, cs.resp) {
		return fmt.Sprintf("%s: spec seed %d: service answered %+v, direct run gives %+v", b.name, cs.seed, cs.resp, *want)
	}
	return ""
}

// request is one synchronous POST /schedule; a failed or wrong answer
// counts as a failed operation and contributes no latency.
func (b *svcBench) request(c, k int, tr *tracer, run *clientRun) {
	var (
		body []byte
		idx  int
		key  uint64
	)
	if b.mode == specCold {
		key = b.nextKey.Add(1)
		body = specBody(key, b.nodes)
	} else {
		idx = (c + k*b.clients) % len(b.bodies)
		body = b.bodies[idx]
	}
	id := tr.begin("service.request", int32(k))
	raw, wall, err := b.call("/schedule", body, http.StatusOK)
	tr.end(id)
	var resp service.Response
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	if err != nil {
		run.chk.op(err.Error())
		return
	}
	msg := invariants(&resp)
	if msg == "" && b.mode == inlineWarm && digest(raw) != b.hashes[idx] {
		msg = fmt.Sprintf("%s: tree %d: repeat response differs from the first", b.name, idx)
	}
	run.chk.op(msg)
	if msg == "" {
		run.lat = append(run.lat, wall.Seconds()*1e3)
		if b.mode == specCold && k%coldVerify == 0 {
			run.cold = append(run.cold, coldSample{key, resp})
		}
	}
}

// wave submits jobWave jobs, then polls them in submission order; a
// job's latency runs from its submit to the first poll that reads done.
func (b *svcBench) wave(c, k int, tr *tracer, run *clientRun) {
	spanned := func(name string, op int, path string, body []byte, want int) ([]byte, error) {
		id := tr.begin(name, int32(op))
		raw, _, err := b.call(path, body, want)
		tr.end(id)
		return raw, err
	}
	type pending struct {
		id    uint64
		tree  int
		start time.Time
	}
	var jobs []pending
	for i := 0; i < jobWave; i++ {
		idx := (c + (k*jobWave+i)*b.clients) % len(b.bodies)
		start := time.Now()
		raw, err := spanned("service.submit", k*jobWave+i, "/jobs", b.bodies[idx], http.StatusAccepted)
		var jv service.JobView
		if err == nil {
			err = json.Unmarshal(raw, &jv)
		}
		if err != nil {
			run.chk.op(err.Error())
			continue
		}
		jobs = append(jobs, pending{jv.ID, idx, start})
	}
	for i, j := range jobs {
		for {
			raw, err := spanned("service.poll", k*jobWave+i, "/jobs/"+strconv.FormatUint(j.id, 10), nil, http.StatusOK)
			run.polls++
			var jv service.JobView
			if err == nil {
				err = json.Unmarshal(raw, &jv)
			}
			if err != nil {
				run.chk.op(err.Error())
				break
			}
			if jv.Status == service.JobFailed {
				run.chk.op(fmt.Sprintf("%s: job %d failed: %s", b.name, j.id, jv.Error))
				break
			}
			if jv.Status == service.JobDone {
				wall := time.Since(j.start)
				msg := ""
				if !reflect.DeepEqual(jv.Response, b.expect[j.tree]) {
					msg = fmt.Sprintf("%s: job %d: result differs from the synchronous answer for tree %d", b.name, j.id, j.tree)
				}
				run.chk.op(msg)
				if msg == "" {
					run.lat = append(run.lat, wall.Seconds()*1e3)
				}
				break
			}
			time.Sleep(pollInterval)
		}
	}
}

func (b *svcBench) traced(tr *tracer, r *results, e2e timing, chk *checker) error {
	untracedMS := summarize(e2e.latMS, "").Value

	// Counters across the untraced timed loop.
	if lookups := b.delta.CacheHits + b.delta.CacheMisses; lookups > 0 {
		r.set("service.cache_hit_share", float64(b.delta.CacheHits)/float64(lookups))
	}
	r.set("service.cached_trees", float64(b.delta.CachedTrees))
	r.set("service.served", float64(b.delta.Served))
	r.set("service.rejected", float64(b.delta.Rejected))
	r.set("service.in_flight_high_water", float64(b.delta.InFlightHighWater))
	r.set("service.jobs_done", float64(b.delta.JobsDone))
	r.set("service.jobs_restarts", float64(b.delta.JobsRestarts))
	if b.mode == asyncJobs {
		r.set("service.polls_per_job", float64(b.polls)/float64(len(e2e.latMS)))
	}
	bodyBytes := 0
	for _, body := range b.bodies {
		bodyBytes += len(body)
	}
	if b.mode == specCold {
		r.set("service.bytes_per_req", float64(len(specBody(b.nextKey.Load(), b.nodes))))
	} else {
		r.set("service.bytes_per_req", float64(bodyBytes)/float64(len(b.bodies)))
	}

	// Traced loop: the same closed loop, every client call in a span.
	trs := make([]*tracer, b.clients)
	for i := range trs {
		trs[i] = newTracer()
	}
	traced := b.loop(min(2*time.Second, e2e.busy), chk, trs)
	for _, t := range trs {
		tr.merge(t)
	}
	r.set("trace.overhead_share", summarize(traced.latMS, "").Value/untracedMS-1)
	if b.mode == asyncJobs {
		byName := selfByName(tr.spans)
		r.extra("service.submit_ms", "ms", summarize(byName["service.submit"], "").Value/1e6)
		r.extra("service.poll_ms", "ms", summarize(byName["service.poll"], "").Value/1e6)
		_, wall, err := b.call("/metricsz", nil, http.StatusOK)
		if err != nil {
			return err
		}
		r.extra("service.metricsz_ms", "ms", wall.Seconds()*1e3)
	}

	// Stage and core probes on the working set's own trees.
	trees, seeds := b.trees, []uint64(nil)
	if b.mode == specCold {
		for i := 0; i < 16; i++ {
			key := b.nextKey.Add(1)
			t, err := workload.Synthetic(workload.NewRNG(key), workload.SyntheticOptions{Nodes: b.nodes})
			if err != nil {
				return err
			}
			trees, seeds = append(trees, t), append(seeds, key)
		}
	}
	sample := sampleTrees(trees, 16)
	if err := stageProbe(tr, r, sample, seeds, b.mode == specCold); err != nil {
		return err
	}
	if b.mode != asyncJobs {
		handler := r.value("service.handler_ms")
		r.set("service.handler_share", handler/untracedMS)
		r.extra("service.transport_ms", "ms", untracedMS-handler)
	}
	_, err := coreProbe(tr, r, prepare(trees), svcProcs, svcMemFactor)
	return err
}
