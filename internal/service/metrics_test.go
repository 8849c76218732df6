package service_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestMetricszEndpoint drives one served and one unschedulable request
// through /schedule and checks both land in the Prometheus text: the
// core gauges, the per-heuristic admission ledger, and the runtime
// republications.
func TestMetricszEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	tr := workload.MustSynthetic(workload.NewRNG(71), workload.SyntheticOptions{Nodes: 200})
	if status, b := post(t, ts, treePayload(t, tr, `,"mem_factor":2`)); status != http.StatusOK {
		t.Fatalf("serve: %d %s", status, b)
	}
	if status, _ := post(t, ts, treePayload(t, tr, `,"mem_factor":0.01`)); status != http.StatusUnprocessableEntity {
		t.Fatalf("underbound request: %d, want 422", status)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: %d %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(b)
	for _, want := range []string{
		"treesched_served_total 1\n",
		"treesched_rejected_total 1\n",
		`treesched_admissions_total{heuristic="MemBooking",decision="ok"} 1`,
		`treesched_admissions_total{heuristic="MemBooking",decision="unschedulable"} 1`,
		"treesched_workers ",
		"treesched_in_flight_high_water ",
		"treesched_jobs_restarts_total 0",
		"treesched_stream_dropped_frames_total 0",
		"treesched_go_goroutines ",
		"treesched_go_heap_objects_bytes ",
		"treesched_go_gc_cycles_total ",
		"# TYPE treesched_cache_hits_total counter",
		// The second post repeated the first one's tree text exactly.
		"treesched_cache_hits_total 1\n",
		"treesched_cache_text_hits_total 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics lack %q:\n%s", want, out)
		}
	}
}

// TestStreamzDeliversEvents subscribes a live SSE client, runs a job
// through the queue, and expects the lifecycle to arrive on the stream:
// admit, start and done events plus the queue-depth track.
func TestStreamzDeliversEvents(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/streamz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /streamz: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	tr := workload.MustSynthetic(workload.NewRNG(72), workload.SyntheticOptions{Nodes: 150})
	code, v, body := postJob(t, ts, treePayload(t, tr, ``))
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", code, body)
	}
	if got := waitJob(t, ts, v.ID); got.Status != service.JobDone {
		t.Fatalf("job: %+v", got)
	}

	want := map[string]bool{`"kind":"admit"`: false, `"kind":"start"`: false,
		`"kind":"done"`: false, `"kind":"queue"`: false}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		missing := 0
		for k := range want {
			if strings.Contains(line, k) {
				want[k] = true
			}
			if !want[k] {
				missing++
			}
		}
		if missing == 0 {
			return
		}
	}
	t.Fatalf("stream ended with events missing: %v (scan err %v)", want, sc.Err())
}

// TestJobTimelineEndpoint renders a traced job as text via ?timeline=1
// and checks the non-renderable cases answer with a verdict, not JSON.
func TestJobTimelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	tr := workload.MustSynthetic(workload.NewRNG(73), workload.SyntheticOptions{Nodes: 120})

	code, v, body := postJob(t, ts, treePayload(t, tr, `,"trace":true`))
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
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %d %s", resp.StatusCode, b)
	}
	if out := string(b); !strings.Contains(out, "time 0") || !strings.Contains(out, "P0") {
		t.Fatalf("not a Gantt rendering:\n%s", out)
	}

	// Without a trace the verdict tells the client what to resubmit with.
	code, v, body = postJob(t, ts, treePayload(t, tr, ``))
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", code, body)
	}
	waitJob(t, ts, v.ID)
	resp, err = http.Get(fmt.Sprintf("%s/jobs/%d?timeline=1", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(b), "trace") {
		t.Fatalf("traceless timeline: %d %s", resp.StatusCode, b)
	}
}
