package service_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestTracedOutputGolden pins every byte the service writes for a traced
// schedule: the status and body of each /schedule request in a grid of
// heuristics × nominal/perturbed durations × procs × bounds × trees, then
// the ?timeline=1 rendering of one traced job, folded into one FNV-64a
// digest held in testdata/trace.golden. A refactor of how a run is
// recorded must leave the digest alone; only a change that means to move
// traced output rewrites the file with the digest this test reports.
func TestTracedOutputGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	h := fnv.New64a()
	for _, heur := range []string{"Activation", "MemBookingRedTree", "MemBooking"} {
		for _, perturb := range []string{"", `,"perturb":"lognormal(0.3)"`} {
			for _, procs := range []int{1, 3, 8} {
				for _, factor := range []string{"1", "1.5", "4"} {
					for seed := 1; seed <= 4; seed++ {
						body := fmt.Sprintf(`{"synthetic":{"seed":%d,"nodes":80},"heuristic":%q,"procs":%d,"mem_factor":%s,"trace":true%s}`,
							seed, heur, procs, factor, perturb)
						status, b := post(t, ts, body)
						fmt.Fprintf(h, "%s\n%d\n%s\n", body, status, b)
					}
				}
			}
		}
	}

	code, v, body := postJob(t, ts, `{"synthetic":{"seed":5,"nodes":120},"procs":4,"trace":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", code, body)
	}
	if got := waitJob(t, ts, v.ID); got.Status != service.JobDone {
		t.Fatalf("job: %+v", got)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d?timeline=1", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "timeline\n%d\n%s\n", resp.StatusCode, b)

	want, err := os.ReadFile("testdata/trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != strings.TrimSpace(string(want)) {
		t.Errorf("traced output digest %s, testdata/trace.golden holds %s", got, strings.TrimSpace(string(want)))
	}
}
