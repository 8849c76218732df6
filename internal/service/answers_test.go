package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/order"
	"repro/internal/service"
	"repro/internal/workload"
)

// answerGrid is the untraced twin of TestTracedOutputGolden's grid:
// heuristics × nominal/perturbed durations × procs × bounds × trees.
// Activation at mem_factor 1 is where simulated deadlocks (422) live.
func answerGrid() []string {
	var grid []string
	for _, heur := range []string{"Activation", "MemBookingRedTree", "MemBooking"} {
		for _, perturb := range []string{"", `,"perturb":"lognormal(0.3)"`} {
			for _, procs := range []int{1, 3, 8} {
				for _, factor := range []string{"1", "1.5", "4"} {
					for seed := 1; seed <= 4; seed++ {
						grid = append(grid, fmt.Sprintf(`{"synthetic":{"seed":%d,"nodes":80},"heuristic":%q,"procs":%d,"mem_factor":%s%s}`,
							seed, heur, procs, factor, perturb))
					}
				}
			}
		}
	}
	return grid
}

// TestAnswersGolden pins every byte the service writes for untraced
// requests that repeat, one FNV-64a digest per phase in
// testdata/answers.golden: answerGrid with each body posted twice in a
// row; bare requests beside their explicit-default spellings; option
// sets taken round-robin on one tree, so consecutive requests differ;
// and answerGrid again through /jobs, each body twice. However a repeat
// is answered, these bytes must not move; only a change that means to
// move a reply rewrites the file with the digests this test reports.
func TestAnswersGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got strings.Builder
	h := fnv.New64a()
	statuses := map[int]int{}
	record := func(body string, status int, b []byte) {
		statuses[status]++
		fmt.Fprintf(h, "%s\n%d\n%s\n", body, status, b)
	}
	flush := func(phase string) {
		fmt.Fprintf(&got, "%s %016x\n", phase, h.Sum64())
		h.Reset()
	}

	grid := answerGrid()
	for _, body := range grid {
		for rep := 0; rep < 2; rep++ {
			status, b := post(t, ts, body)
			record(body, status, b)
		}
	}
	flush("twice")

	tr := workload.MustSynthetic(workload.NewRNG(5), workload.SyntheticOptions{Nodes: 200})
	sources := []string{`{"synthetic":{"seed":6,"nodes":150}`, strings.TrimSuffix(treePayload(t, tr, ""), "}")}
	for _, src := range sources {
		for _, opt := range []string{
			``,
			`,"procs":8,"mem_factor":2,"ao":"memPO"`,
			`,"heuristic":"MemBooking","procs":8,"mem_factor":2,"ao":"memPO","eo":"memPO"`,
			`,"perturb_seed":9`,
			``,
		} {
			status, b := post(t, ts, src+opt+"}")
			record(opt, status, b)
		}
	}
	flush("defaults")

	roundRobin := []string{
		``,
		`,"heuristic":"Activation","eo":"CP"`,
		`,"heuristic":"MemBookingRedTree","mem_factor":4`,
		`,"perturb":"lognormal(0.3)","perturb_seed":11`,
		`,"perturb":"lognormal(0.3)","perturb_seed":12`,
		`,"perturb":"stragglers(0.05,10)","perturb_seed":1`,
		`,"mem_factor":1.5`,
		`,"procs":3`,
		`,"heuristic":"Activation","mem_factor":1`,
	}
	for round := 0; round < 3; round++ {
		for _, opt := range roundRobin {
			status, b := post(t, ts, sources[1]+opt+"}")
			record(opt, status, b)
		}
	}
	flush("round-robin")

	for _, body := range grid {
		for rep := 0; rep < 2; rep++ {
			code, v, b := postJob(t, ts, body)
			if code != http.StatusAccepted {
				t.Fatalf("POST /jobs %s: %d %s", body, code, b)
			}
			waitJob(t, ts, v.ID)
			resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID))
			if err != nil {
				t.Fatal(err)
			}
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			record(body, resp.StatusCode, b)
		}
	}
	flush("jobs")

	t.Logf("statuses %v", statuses)
	if statuses[http.StatusUnprocessableEntity] == 0 {
		t.Error("no request was unschedulable: the 422 outcomes are not exercised")
	}
	want, err := os.ReadFile("testdata/answers.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("answer digests moved off testdata/answers.golden; this run:\n%s", got.String())
	}
}

// FuzzAnswerTwice searches the stored answer's key. Each input is a set
// of request options — heuristic, procs, a factor or an absolute bound,
// AO and EO, a perturbation model and seed, the trace flag — on one of
// three small trees, posted twice to one long-lived server whose 2-tree
// cache the fuzzer's own inputs churn, so a stored answer keeps meeting
// requests that differ from its own in one field. Both posts must give
// the status and body a fresh server gives, and never a 5xx: a field
// the key misses serves one request another's answer here.
func FuzzAnswerTwice(f *testing.F) {
	f.Add(uint8(0), uint8(0), int8(0), false, 0.0, uint8(0), uint8(0), uint8(0), uint64(0), false)
	f.Add(uint8(1), uint8(2), int8(3), false, 1.0, uint8(1), uint8(0), uint8(0), uint64(0), false)
	f.Add(uint8(1), uint8(2), int8(3), false, 1.0, uint8(1), uint8(3), uint8(0), uint64(0), false)
	f.Add(uint8(2), uint8(3), int8(8), false, 4.0, uint8(0), uint8(2), uint8(1), uint64(7), false)
	f.Add(uint8(2), uint8(3), int8(8), false, 4.0, uint8(0), uint8(2), uint8(1), uint64(8), false)
	f.Add(uint8(0), uint8(1), int8(2), true, 50.0, uint8(2), uint8(0), uint8(2), uint64(1), true)
	f.Add(uint8(0), uint8(4), int8(-1), false, 0.01, uint8(3), uint8(4), uint8(4), uint64(0), false)
	heuristics := []string{"", "MemBooking", "Activation", "MemBookingRedTree", "Magic"}
	orders := []string{"", order.NameMemPO, order.NamePerfPO, order.NameCP, order.NameNatural}
	models := []string{"", "lognormal(0.3)", "stragglers(0.05,10)", "zerodur(0.2)", "chaos(1)"}
	pick := func(names []string, i uint8) string { return names[int(i)%len(names)] }
	opts := &service.Options{MaxCachedTrees: 2}
	srv := service.New(opts)
	f.Cleanup(srv.CloseStreams)
	long := srv.Handler()
	f.Fuzz(func(t *testing.T, tr, heur uint8, procs int8, absolute bool, bound float64, ao, eo, model uint8, seed uint64, trace bool) {
		req := service.Request{
			Synthetic: &service.SyntheticSpec{Seed: uint64(tr%3) + 1, Nodes: 30 + 20*int(tr%3)},
			Heuristic: pick(heuristics, heur), Procs: int(procs),
			AO: pick(orders, ao), EO: pick(orders, eo),
			Perturb: pick(models, model), PerturbSeed: seed, Trace: trace,
		}
		if absolute {
			req.Mem = bound
		} else {
			req.MemFactor = bound
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Skip("not a JSON body:", err) // a NaN or infinite bound
		}
		serve := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
			return rec
		}
		fresh := service.New(opts)
		defer fresh.CloseStreams()
		want := serve(fresh.Handler())
		if want.Code >= http.StatusInternalServerError {
			t.Fatalf("%s: a fresh server answers %d %s", body, want.Code, want.Body)
		}
		for i := 1; i <= 2; i++ {
			if got := serve(long); got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s: post %d answers %d %s, a fresh server %d %s", body, i, got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
}
