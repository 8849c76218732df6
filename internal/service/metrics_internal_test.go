package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMetricszCoversStats holds the statsMetrics table to the Stats
// struct and to the wire: every exported field feeds exactly one row
// (a field added without a row, or a row reading the wrong field, fails
// here), and a Stats whose k-th field holds k+1 renders byte for byte
// what the pre-table handler wrote for it — names, types, help strings
// and order are what scripts/obs_smoke.sh and bench/ grep.
func TestMetricszCoversStats(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	if len(statsMetrics) != typ.NumField() {
		t.Errorf("%d rows for %d Stats fields", len(statsMetrics), typ.NumField())
	}
	var all Stats
	for k := 0; k < typ.NumField(); k++ {
		var one Stats
		for _, st := range []*Stats{&one, &all} {
			switch f := reflect.ValueOf(st).Elem().Field(k); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(k + 1))
			case reflect.Uint64:
				f.SetUint(uint64(k + 1))
			case reflect.Float64:
				f.SetFloat(float64(k) + 1.5)
			default:
				t.Fatalf("Stats.%s: no rule to fill a %s", typ.Field(k).Name, f.Kind())
			}
		}
		var rows []string
		for _, m := range statsMetrics {
			if m.get(&one) != 0 {
				rows = append(rows, m.name)
			}
		}
		if len(rows) != 1 {
			t.Errorf("Stats.%s feeds %d rows %v, want exactly one", typ.Field(k).Name, len(rows), rows)
		}
	}
	want, err := os.ReadFile("testdata/metricsz_stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeStatsMetrics(&got, &all)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metricsz rendering of Stats moved off testdata/metricsz_stats.golden:\n%s", got.Bytes())
	}
}

// TestStalledStreamSubscriberDoesNotBlockJobs is the service-level
// backpressure oracle: a subscriber with a one-frame buffer that never
// receives sits on the bus while a whole job wave runs. The wave must
// complete at worker speed (emitters never wait on the bus) and the
// stalled subscription must account the frames it lost. Run with
// -race: submissions, runners and the drain goroutine all touch the
// observer concurrently.
func TestStalledStreamSubscriberDoesNotBlockJobs(t *testing.T) {
	s := New(&Options{Workers: 4})
	t.Cleanup(s.CloseStreams)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	stalled := s.obs.Subscribe(1)

	const wave = 30
	payload := `{"synthetic":{"seed":9,"nodes":200}}`
	for i := 0; i < wave; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.JobsDone == wave {
			break
		}
		if st.JobsFailed > 0 {
			t.Fatalf("jobs failed under a stalled subscriber: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("wave incomplete after 30s: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The final drain on close flushes whatever the ring still holds, so
	// the stalled subscription's loss is fully accounted before we read it.
	s.CloseStreams()
	if stalled.Dropped() == 0 {
		t.Fatal("stalled subscriber dropped nothing — was it exerting backpressure?")
	}
	if s.Stats().StreamDroppedFrames < stalled.Dropped() {
		t.Fatalf("observer ledger %d below the subscription's %d", s.Stats().StreamDroppedFrames, stalled.Dropped())
	}
	stalled.Close()
}

// TestStreamzClosesOnCloseStreams pins the shutdown path: CloseStreams
// must end an open /streamz response (the subscription channel closes),
// so a daemon shutdown never hangs on connected stream clients.
func TestStreamzClosesOnCloseStreams(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /streamz: %d", resp.StatusCode)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	// Subscription registration races the GET returning; settle it.
	deadline := time.Now().Add(5 * time.Second)
	for s.obs.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	s.CloseStreams()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("/streamz still open 10s after CloseStreams")
	}
}

// TestEnterFlightHighWater exercises the occupancy high-water CAS.
func TestEnterFlightHighWater(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	for i := 0; i < 3; i++ {
		s.enterFlight()
	}
	s.inFlight.Add(-1)
	if hw := s.Stats().InFlightHighWater; hw != 3 {
		t.Fatalf("high water %d, want 3", hw)
	}
	if fl := s.Stats().InFlight; fl != 2 {
		t.Fatalf("in flight %d, want 2", fl)
	}
}

// TestRecordAdmissionClampsCardinality: hostile heuristic names must
// not mint new metric labels.
func TestRecordAdmissionClampsCardinality(t *testing.T) {
	s := New(nil)
	t.Cleanup(s.CloseStreams)
	for i := 0; i < 5; i++ {
		s.recordVerdict(&Request{Heuristic: fmt.Sprintf("evil-%d", i)},
			fail(http.StatusBadRequest, "no"))
	}
	s.recordVerdict(&Request{}, nil)
	counts := map[string]int64{}
	for i, h := range heuristicLabels {
		for j, d := range decisions {
			if n := s.admissions[i][j].Load(); n > 0 {
				counts[h+"/"+d] = n
			}
		}
	}
	if len(counts) != 2 || counts["unknown/client_error"] != 5 || counts["MemBooking/ok"] != 1 {
		t.Fatalf("admission counts %v, want unknown/client_error 5 and MemBooking/ok 1", counts)
	}
	if st := s.Stats(); st.Served != 1 || st.Rejected != 5 {
		t.Fatalf("served %d, rejected %d; want 1, 5", st.Served, st.Rejected)
	}
}
