package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func newTestServer(t *testing.T, opts *service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.CloseStreams) // runs first, so an open /streamz ends before ts.Close waits on it
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func treePayload(t *testing.T, tr *tree.Tree, extra string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"tree":%s%s}`, enc, extra)
}

// handlerCases is the handler contract, for a server with MaxNodes 100:
// hostile and invalid payloads map to 4xx with a JSON error body — never
// to 500, never to a crash.
var handlerCases = []struct {
	name   string
	body   string
	status int
	substr string
}{
	{"empty body", ``, http.StatusBadRequest, "bad request"},
	{"not json", `schedule my tree please`, http.StatusBadRequest, "bad request"},
	{"unknown field", `{"tree":"0 -1 1 1 1\n","bogus":1}`, http.StatusBadRequest, "bogus"},
	{"trailing garbage", `{"synthetic":{"seed":1,"nodes":5}} garbage`, http.StatusBadRequest, "trailing data"},
	{"two objects", `{"tree":"0 -1 1 1 1\n"}{"tree":"0 -1 1 1 1\n"}`, http.StatusBadRequest, "trailing data"},
	{"no source", `{}`, http.StatusBadRequest, "exactly one"},
	{"two sources", `{"tree":"0 -1 1 1 1\n","synthetic":{"seed":1,"nodes":5}}`, http.StatusBadRequest, "exactly one"},
	{"negative id", `{"tree":"-2 -1 1 1 1\n"}`, http.StatusBadRequest, "bad id"},
	{"absurd id", `{"tree":"1000000000000000 -1 1 1 1\n"}`, http.StatusBadRequest, "bad id"},
	{"nan attribute", `{"tree":"0 -1 NaN 1 1\n"}`, http.StatusBadRequest, "NaN"},
	{"inf attribute", `{"tree":"0 -1 inf 1 1\n"}`, http.StatusBadRequest, "infinite"},
	{"inf time", `{"tree":"0 -1 1 1 inf\n"}`, http.StatusBadRequest, "infinite"},
	{"negative attribute", `{"tree":"0 -1 -5 1 1\n"}`, http.StatusBadRequest, "negative"},
	{"two roots", `{"tree":"0 -1 1 1 1\n1 -1 1 1 1\n"}`, http.StatusBadRequest, "root"},
	{"oversized tree", `{"tree":"101 -1 1 1 1\n"}`, http.StatusRequestEntityTooLarge, "limit"},
	{"oversized synthetic", `{"synthetic":{"seed":1,"nodes":101}}`, http.StatusRequestEntityTooLarge, "limit"},
	{"oversized grid2d", `{"grid2d":{"n":1000}}`, http.StatusRequestEntityTooLarge, "limit"},
	{"oversized grid3d", `{"grid3d":{"n":1000}}`, http.StatusRequestEntityTooLarge, "limit"},
	{"bad grid", `{"grid2d":{"n":-3}}`, http.StatusBadRequest, "positive"},
	{"bad synthetic", `{"synthetic":{"seed":1,"nodes":0}}`, http.StatusBadRequest, "positive"},
	{"unknown heuristic", `{"tree":"0 -1 1 1 1\n","heuristic":"Magic"}`, http.StatusBadRequest, "unknown heuristic"},
	// The message is baseline.ErrUnknown's, passed through bare.
	{"unknown heuristic, whole message", `{"tree":"0 -1 1 1 1\n","heuristic":"Magic"}`, http.StatusBadRequest, `{"error":"unknown heuristic \"Magic\""}`},
	{"unknown order", `{"tree":"0 -1 1 1 1\n","ao":"bogus"}`, http.StatusBadRequest, "bad activation order"},
	{"non-topological ao", `{"tree":"0 -1 1 1 1\n1 0 1 1 1\n","ao":"CP"}`, http.StatusBadRequest, "not topological"},
	{"bad procs", `{"tree":"0 -1 1 1 1\n","procs":-1}`, http.StatusBadRequest, "procs"},
	{"bad bound", `{"tree":"0 -1 1 1 1\n","mem":-4}`, http.StatusBadRequest, "positive"},
	{"unknown perturbation", `{"tree":"0 -1 1 1 1\n","perturb":"chaos(1)"}`, http.StatusBadRequest, "unknown perturbation"},
	{"overflowing factor", `{"tree":"0 -1 1 1 1\n","mem_factor":1e308}`, http.StatusBadRequest, "finite"},
	{"overflowing result", `{"tree":"0 -1 1 1 1e308\n1 0 1 1 1e308\n","mem":10}`, http.StatusUnprocessableEntity, "overflow"},
	// Admission control: the single node needs exec+out = 2.
	{"admission reject", `{"tree":"0 -1 1 1 1\n","mem":1}`, http.StatusUnprocessableEntity, "deadlock"},
	{"ok", `{"tree":"0 -1 1 1 1\n"}`, http.StatusOK, `"makespan"`},
}

func TestHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, &service.Options{MaxNodes: 100})
	for _, tc := range handlerCases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, body)
			}
			if !strings.Contains(string(body), tc.substr) {
				t.Fatalf("body %s does not mention %q", body, tc.substr)
			}
			if tc.substr == "trailing data" {
				// POST /jobs reads its body through the same decoder.
				if status, _, body := postJob(t, ts, tc.body); status != tc.status || !strings.Contains(string(body), tc.substr) {
					t.Fatalf("/jobs: %d %s, want %d mentioning %q", status, body, tc.status, tc.substr)
				}
			}
		})
	}
}

// The text alias must be invisible in the response: a body posted twice
// to one server (the second post may be recognised by its text) and once
// to a fresh server (never is) gives three identical (status, body)
// results — for every inline case of the handler table, rejections
// included, and for every schedule variant over an inline tree. The
// second post is a text hit exactly when the first got the text past
// parsing and validation, so a failing text never gains an alias.
func TestTextAliasEquivalence(t *testing.T) {
	type group struct {
		opts   *service.Options
		bodies []string
	}
	table := group{opts: &service.Options{MaxNodes: 100}}
	for _, tc := range handlerCases {
		table.bodies = append(table.bodies, tc.body)
	}
	var variants group
	tr := workload.MustSynthetic(workload.NewRNG(3), workload.SyntheticOptions{Nodes: 300})
	for _, opt := range variantOptions {
		variants.bodies = append(variants.bodies, treePayload(t, tr, opt))
	}
	textHits := 0
	for _, g := range []group{table, variants} {
		srv, ts := newTestServer(t, g.opts)
		for _, body := range g.bodies {
			status1, body1 := post(t, ts, body)
			before := srv.Stats().CacheTextHits
			status2, body2 := post(t, ts, body)
			hit := srv.Stats().CacheTextHits - before
			fresh, fts := newTestServer(t, g.opts)
			status3, body3 := post(t, fts, body)
			if status2 != status1 || status3 != status1 || !bytes.Equal(body2, body1) || !bytes.Equal(body3, body1) {
				t.Fatalf("%.60s: first %d %s, repeat %d %s, fresh server %d %s", body, status1, body1, status2, body2, status3, body3)
			}
			// The fresh server holds a tree exactly when this body's source
			// was accepted, and only an inline source has a text to alias.
			var req service.Request
			inline := json.Unmarshal([]byte(body), &req) == nil && req.Tree != "" && req.Synthetic == nil
			want := 0
			if inline && fresh.Stats().CachedTrees == 1 {
				want = 1
			}
			if hit != want {
				t.Fatalf("%.60s (status %d): repeat scored %d text hits, want %d", body, status1, hit, want)
			}
			textHits += hit
		}
	}
	if textHits < len(variantOptions) {
		t.Fatalf("only %d repeats were recognised by text; the alias is not being exercised", textHits)
	}
}

// FuzzInlineTwice posts arbitrary text as an inline tree twice through
// the handler: whatever the text, and whatever the cache holds by then,
// both posts give the same status and body, and never a 5xx.
func FuzzInlineTwice(f *testing.F) {
	f.Add("0 -1 1 1 1\n")
	f.Add("# c\n1 0 0 1 1\n0 -1 0.5 2 3\n2 0 0 1 1\n")
	f.Add("0 -1 NaN 1 1\n")
	f.Add("0 -1 1 1 1e308\n1 0 1 1 1e308\n")
	f.Add("-2 -1 1 1 1\n")
	f.Add("0 -1 1 1 1\n1 -1 1 1 1\n")
	f.Add("")
	// One server for the whole run, small enough that the fuzzer's own
	// inputs drive evictions between and around the paired posts.
	srv := service.New(&service.Options{MaxNodes: 64, MaxCachedTrees: 4})
	f.Cleanup(srv.CloseStreams)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, text string) {
		body, err := json.Marshal(service.Request{Tree: text})
		if err != nil {
			t.Fatal(err)
		}
		var first *httptest.ResponseRecorder
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
			if rec.Code >= http.StatusInternalServerError {
				t.Fatalf("post %d: %d %s", i+1, rec.Code, rec.Body)
			}
			if first == nil {
				first = rec
			} else if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("first post %d %s, second %d %s", first.Code, first.Body, rec.Code, rec.Body)
			}
		}
	})
}

// A 422 admission rejection must carry both the offending bound and the
// instance's minimal memory, so a client can correct its request.
func TestAdmissionBodyHasBound(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := post(t, ts, `{"tree":"0 -1 3 4 1\n","mem":5}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", status, body)
	}
	var e struct {
		Error     string  `json:"error"`
		Bound     float64 `json:"bound"`
		MinMemory float64 `json:"min_memory"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Bound != 5 || e.MinMemory != 7 {
		t.Fatalf("bound %g / min_memory %g, want 5 / 7 (%s)", e.Bound, e.MinMemory, body)
	}
}

// Repeated identical submissions must hit the prepared-instance cache
// and return byte-identical responses.
func TestRepeatSubmissionHitsCacheBytewise(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	tr := workload.MustSynthetic(workload.NewRNG(7), workload.SyntheticOptions{Nodes: 500})
	payload := treePayload(t, tr, `,"mem_factor":1.5,"heuristic":"Activation"`)

	status1, body1 := post(t, ts, payload)
	if status1 != http.StatusOK {
		t.Fatalf("first submission: %d %s", status1, body1)
	}
	st := srv.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 || st.CacheAnswerHits != 0 {
		t.Fatalf("after first submission: %+v", st)
	}
	status2, body2 := post(t, ts, payload)
	if status2 != http.StatusOK {
		t.Fatalf("second submission: %d %s", status2, body2)
	}
	st = srv.Stats()
	if st.CacheHits != 1 || st.CacheAnswerHits != 1 {
		t.Fatalf("second identical submission was not answered from the cache: %+v", st)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("responses differ:\n%s\n%s", body1, body2)
	}
	// A different bound on the same tree still reuses the instance (hit),
	// but the result differs.
	status3, body3 := post(t, ts, treePayload(t, tr, `,"mem_factor":3,"heuristic":"Activation"`))
	if status3 != http.StatusOK {
		t.Fatalf("third submission: %d %s", status3, body3)
	}
	if st = srv.Stats(); st.CacheHits != 2 || st.CacheAnswerHits != 1 {
		t.Fatalf("same tree with a new bound missed the cache or reused an answer: %+v", st)
	}
	if bytes.Equal(body1, body3) {
		t.Fatal("different bound returned identical bytes")
	}
	if st.Served != 3 || st.InFlight != 0 {
		t.Fatalf("counter drift: %+v", st)
	}
	// A traced request neither reads nor stores an answer: its repeat is
	// simulated again, to the same bytes.
	traced := treePayload(t, tr, `,"mem_factor":3,"heuristic":"Activation","trace":true`)
	_, body4 := post(t, ts, traced)
	_, body5 := post(t, ts, traced)
	if !bytes.Equal(body4, body5) {
		t.Fatalf("traced responses differ:\n%s\n%s", body4, body5)
	}
	if st = srv.Stats(); st.CacheAnswerHits != 1 {
		t.Fatalf("a traced repeat was answered from the cache: %+v", st)
	}
	// Omitted defaults and their explicit spelling resolve to one answer.
	_, bare := post(t, ts, treePayload(t, tr, ``))
	_, explicit := post(t, ts, treePayload(t, tr, `,"procs":8,"mem_factor":2,"ao":"memPO"`))
	if !bytes.Equal(bare, explicit) {
		t.Fatalf("explicit defaults answered differently:\n%s\n%s", bare, explicit)
	}
	if st = srv.Stats(); st.CacheAnswerHits != 2 {
		t.Fatalf("explicit defaults were not answered from the bare request's outcome: %+v", st)
	}
}

// variantOptions are request options that each take a different path
// through schedule: every heuristic, a named execution order, perturbed
// execution and the trace.
var variantOptions = []string{
	``,
	`,"heuristic":"Activation","eo":"CP"`,
	`,"heuristic":"MemBookingRedTree","mem_factor":4`,
	`,"perturb":"lognormal(0.3)","perturb_seed":11`,
	`,"perturb":"stragglers(0.05,10)","perturb_seed":1`,
	`,"heuristic":"MemBookingRedTree","mem_factor":4,"trace":true`,
}

// All three heuristics, perturbed execution, the trace, and the
// synthetic/grid sources work end to end over HTTP.
func TestScheduleVariants(t *testing.T) {
	_, ts := newTestServer(t, nil)
	bodies := []string{`{"grid2d":{"n":12,"amalgamation":8}}`, `{"grid3d":{"n":5}}`}
	for _, opt := range variantOptions {
		bodies = append(bodies, `{"synthetic":{"seed":3,"nodes":300}`+opt+`}`)
	}
	for _, body := range bodies {
		status, b := post(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("%s -> %d %s", body, status, b)
		}
		var resp struct {
			Makespan   float64 `json:"makespan"`
			LowerBound float64 `json:"lower_bound"`
			Nodes      int     `json:"nodes"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if resp.Makespan <= 0 || resp.Nodes <= 0 {
			t.Fatalf("%s: degenerate response %s", body, b)
		}
		if resp.Makespan+1e-9 < resp.LowerBound {
			t.Fatalf("%s: makespan %g below lower bound %g", body, resp.Makespan, resp.LowerBound)
		}
	}
	// The trace has one span per submitted task — for every heuristic,
	// including RedTree, whose internal run tree carries extra
	// fictitious nodes that must not leak into the response.
	for _, heur := range []string{"MemBooking", "Activation", "MemBookingRedTree"} {
		status, b := post(t, ts, fmt.Sprintf(`{"synthetic":{"seed":3,"nodes":50},"heuristic":%q,"trace":true}`, heur))
		if status != http.StatusOK {
			t.Fatalf("%s trace request: %d %s", heur, status, b)
		}
		var resp struct {
			Nodes    int     `json:"nodes"`
			Makespan float64 `json:"makespan"`
			Trace    []struct {
				Node  int     `json:"node"`
				Start float64 `json:"start"`
				End   float64 `json:"end"`
			} `json:"trace"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Trace) != resp.Nodes {
			t.Fatalf("%s: %d spans for %d tasks", heur, len(resp.Trace), resp.Nodes)
		}
		for _, sp := range resp.Trace {
			if sp.Node < 0 || sp.Node >= resp.Nodes {
				t.Fatalf("%s: span for nonexistent task %d", heur, sp.Node)
			}
		}
	}
}

// A perturbed run is deterministic per (seed, model, content) but
// differs from the nominal run.
func TestPerturbedDeterminism(t *testing.T) {
	_, ts := newTestServer(t, nil)
	perturbed := `{"synthetic":{"seed":5,"nodes":400},"perturb":"stragglers(0.05,10)","perturb_seed":1}`
	_, b1 := post(t, ts, perturbed)
	_, b2 := post(t, ts, perturbed)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("perturbed responses differ:\n%s\n%s", b1, b2)
	}
	_, nominal := post(t, ts, `{"synthetic":{"seed":5,"nodes":400}}`)
	if bytes.Equal(b1, nominal) {
		t.Fatal("perturbed run identical to nominal")
	}
}

// Concurrent clients hammering a small working set: every response must
// be the bytes a fresh server gives for that request (run under -race in
// CI). Each tree is asked for under two option sets, taken alternately,
// so its one stored answer keeps being replaced while other clients read
// it. A 1-worker pool must serve concurrent clients too — the semaphore
// queues, never drops.
func TestConcurrentClients(t *testing.T) {
	for _, workers := range []int{1, 4} {
		srv, ts := newTestServer(t, &service.Options{Workers: workers, MaxCachedTrees: 8})
		_, ref := newTestServer(t, nil)
		const trees = 3
		var payloads []string
		for _, opt := range []string{``, `,"procs":4,"mem_factor":3`} {
			for i := 0; i < trees; i++ {
				tr := workload.MustSynthetic(workload.NewRNG(uint64(40+i)), workload.SyntheticOptions{Nodes: 200 + 50*i})
				payloads = append(payloads, treePayload(t, tr, opt))
			}
		}
		want := make([][]byte, len(payloads))
		for i, p := range payloads {
			status, b := post(t, ref, p)
			if status != http.StatusOK {
				t.Fatalf("reference request %d: %d %s", i, status, b)
			}
			want[i] = b
		}
		const clients, perClient = 8, 6
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					i := (c + k) % len(payloads)
					resp, err := http.Post(ts.URL+"/schedule", "application/json", strings.NewReader(payloads[i]))
					if err != nil {
						errs <- err
						return
					}
					b, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
						return
					}
					if !bytes.Equal(b, want[i]) {
						errs <- fmt.Errorf("client %d: request %d answered other bytes than a fresh server", c, i)
						return
					}
					// Interleave stats reads to race them against updates.
					sr, err := http.Get(ts.URL + "/statsz")
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, sr.Body)
					sr.Body.Close()
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := srv.Stats()
		if st.InFlight != 0 {
			t.Fatalf("in-flight not drained: %+v", st)
		}
		if got := st.Served; got != clients*perClient {
			t.Fatalf("served %d, want %d", got, clients*perClient)
		}
		if st.CacheMisses != trees || st.CacheHits != clients*perClient-trees || st.CacheAnswerHits > st.CacheHits {
			t.Fatalf("cache hits %d (answer hits %d), misses %d; want %d hits, %d misses",
				st.CacheHits, st.CacheAnswerHits, st.CacheMisses, clients*perClient-trees, trees)
		}
	}
}

// The content cache evicts beyond its capacity instead of growing
// without bound, and keeps serving correctly afterwards.
func TestCacheEviction(t *testing.T) {
	srv, ts := newTestServer(t, &service.Options{MaxCachedTrees: 2})
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"synthetic":{"seed":%d,"nodes":100}}`, 100+i)
		if status, b := post(t, ts, body); status != http.StatusOK {
			t.Fatalf("submission %d: %d %s", i, status, b)
		}
	}
	st := srv.Stats()
	if st.CachedTrees > 2 {
		t.Fatalf("cache grew past its cap: %+v", st)
	}
	if st.CacheMisses != 5 {
		t.Fatalf("distinct trees should all miss: %+v", st)
	}

	// The node budget evicts independently of the entry count: 150-node
	// trees under a 200-node budget can never be resident two at a time.
	// (MaxNodes must fit the budget, or the budget is raised to it.)
	srv2, ts2 := newTestServer(t, &service.Options{MaxCachedTrees: 100, MaxCachedNodes: 200, MaxNodes: 150})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"synthetic":{"seed":%d,"nodes":150}}`, 200+i)
		if status, b := post(t, ts2, body); status != http.StatusOK {
			t.Fatalf("submission %d: %d %s", i, status, b)
		}
	}
	if st := srv2.Stats(); st.CachedNodes > 200 || st.CachedTrees > 1 {
		t.Fatalf("node budget not enforced: %+v", st)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	sr, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers < 1 {
		t.Fatalf("statsz reports %d workers", st.Workers)
	}
	// Rejections are counted.
	post(t, ts, `{"tree":"-2 -1 1 1 1\n"}`)
	if got := srvStats(t, ts).Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// "Did this request parse?": a byte-identical resubmission is a text
	// hit, a re-commented one a content hit only; CacheHits counts both.
	for _, body := range []string{`{"tree":"0 -1 1 1 1\n"}`, `{"tree":"0 -1 1 1 1\n"}`, `{"tree":"# again\n0 -1 1 1 1\n"}`} {
		if status, b := post(t, ts, body); status != http.StatusOK {
			t.Fatalf("%s: %d %s", body, status, b)
		}
	}
	if st := srvStats(t, ts); st.CacheMisses != 1 || st.CacheHits != 2 || st.CacheTextHits != 1 {
		t.Fatalf("misses/hits/text hits = %d/%d/%d, want 1/2/1", st.CacheMisses, st.CacheHits, st.CacheTextHits)
	}
}

func srvStats(t *testing.T, ts *httptest.Server) service.Stats {
	t.Helper()
	sr, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
