package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/order"
	"repro/internal/service"
	"repro/internal/tree"
)

// Integration tests exercising the whole public API surface end to end:
// workload generation → orders → scheduling → simulation/execution →
// bounds, plus file round trips. These are the flows the README and the
// examples promise.

func TestPublicPipelineSynthetic(t *testing.T) {
	tr, err := repro.SyntheticTree(5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ao, minMem := repro.MinMemPostOrder(tr)
	if minMem <= 0 {
		t.Fatal("non-positive minimum memory")
	}
	for _, factor := range []float64{1, 2} {
		m := factor * minMem
		s, err := repro.NewMemBooking(tr, m, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		res, err := repro.Simulate(tr, 8, s, m)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := repro.BestLowerBound(tr, 8, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < lb-1e-9 {
			t.Fatalf("makespan %g below LB %g", res.Makespan, lb)
		}
	}
}

func TestPublicPipelineAssembly(t *testing.T) {
	tr, err := repro.AssemblyTreeFromGrid2D(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr3, err := repro.AssemblyTreeFromGrid2D(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []*repro.Tree{tr, tr3} {
		ao, minMem := repro.MinMemPostOrder(tt)
		act, err := repro.NewActivation(tt, 3*minMem, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repro.Simulate(tt, 4, act, 3*minMem); err != nil {
			t.Fatal(err)
		}
		red, err := repro.NewMemBookingRedTree(tt, 5*minMem, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repro.Simulate(red.Tree(), 4, red, 5*minMem); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicOrdersAgree(t *testing.T) {
	tr, err := repro.SyntheticTree(9, 500)
	if err != nil {
		t.Fatal(err)
	}
	optOrd, optPeak := repro.OptSeq(tr)
	_, poPeak := repro.MinMemPostOrder(tr)
	if optPeak > poPeak+1e-9 {
		t.Fatalf("OptSeq peak %g worse than memPO %g", optPeak, poPeak)
	}
	measured, err := order.PeakMemory(tr, optOrd.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(measured-optPeak) > 1e-6 {
		t.Fatalf("reported %g, measured %g", optPeak, measured)
	}
}

func TestPublicTreeIO(t *testing.T) {
	tr, err := repro.SyntheticTree(11, 200)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.tree")
	var buf bytes.Buffer
	if err := tree.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadTreeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip %d != %d nodes", back.Len(), tr.Len())
	}
}

// The public service handler serves a schedule and its stats without
// any daemon setup.
func TestPublicServiceHandler(t *testing.T) {
	ts := httptest.NewServer(repro.NewServiceHandler(nil))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/schedule", "application/json",
		strings.NewReader(`{"synthetic":{"seed":2,"nodes":100}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "makespan") {
		t.Fatalf("schedule: %d %s", resp.StatusCode, b)
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
	if st.Served != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// The exported reader feeds schedulers from untrusted bytes, so parse
// success is not enough: NaN or negative attributes (which the internal
// parser tolerates structurally) and hostile ids must all surface as
// errors, never as a tree or a panic.
func TestPublicReadTreeRejectsHostileInput(t *testing.T) {
	for _, in := range []string{
		"0 -1 NaN 1 1\n",              // NaN attribute
		"0 -1 inf 1 1\n",              // infinite attribute
		"0 -1 -5 1 1\n",               // negative attribute
		"0 -1 1 1 -3\n",               // negative time
		"-2 -1 1 1 1\n",               // negative id (the old panic)
		"1000000000000000 -1 1 1 1\n", // absurd id
		"0 0 1 1 1\n",                 // self-parent
		"0 -1 1 1 1\n1 -1 1 1 1\n",    // two roots
	} {
		path := filepath.Join(t.TempDir(), "hostile.tree")
		if err := os.WriteFile(path, []byte(in), 0o600); err != nil {
			t.Fatal(err)
		}
		tr, err := repro.ReadTreeFile(path)
		if err == nil {
			t.Errorf("ReadTreeFile(%q) accepted: %v", in, tr)
		}
	}
}

func TestPublicExecute(t *testing.T) {
	tr, err := repro.SyntheticTree(13, 400)
	if err != nil {
		t.Fatal(err)
	}
	ao, minMem := repro.MinMemPostOrder(tr)
	s, err := repro.NewMemBooking(tr, minMem, ao, repro.CriticalPathOrder(tr))
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	res, err := repro.Execute(tr, s, 4, func(id repro.NodeID) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != int64(tr.Len()) || res.Tasks != tr.Len() {
		t.Fatalf("executed %d of %d tasks", count, tr.Len())
	}
	if res.PeakMem > minMem+1e-9 {
		t.Fatalf("live peak %g over bound %g", res.PeakMem, minMem)
	}
}

func TestPublicBuilderAndBounds(t *testing.T) {
	b := repro.NewTreeBuilder(3)
	root := b.AddRoot(0, 2, 1)
	b.Add(root, 0, 1, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("builder tree has %d nodes", tr.Len())
	}
	lb := repro.ClassicalLowerBound(tr, 2)
	if lb <= 0 {
		t.Fatal("bad classical LB")
	}
	if _, err := repro.MemoryLowerBound(tr, 0); err == nil {
		t.Fatal("M=0 accepted")
	}
}

// A scheduler built from the nominal tree must execute any perturbed
// realisation within the nominal memory bound (the paper's
// dynamic-scheduling claim through the public API).
func TestPublicPerturbation(t *testing.T) {
	tr, err := repro.SyntheticTree(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	models := repro.PerturbModels()
	if len(models) == 0 {
		t.Fatal("no perturbation models")
	}
	ao, peak := repro.MinMemPostOrder(tr)
	for _, m := range models {
		rt, err := repro.Realise(tr, m, 17)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Len() != tr.Len() {
			t.Fatalf("%s: realisation has %d nodes, want %d", m.Name, rt.Len(), tr.Len())
		}
		s, err := repro.NewMemBooking(tr, peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		res, err := repro.Simulate(rt, 4, s, peak)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.PeakMem > peak+1e-9 {
			t.Fatalf("%s: peak %g over nominal bound %g", m.Name, res.PeakMem, peak)
		}
	}
}

// The executor's deadlock is the same public typed error as the
// simulator's.
func TestPublicDeadlockTyped(t *testing.T) {
	b := repro.NewTreeBuilder(1)
	b.AddRoot(5, 5, 0)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ao, _ := repro.MinMemPostOrder(tr)
	s, err := repro.NewMemBooking(tr, 3, ao, ao) // can never activate
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := repro.Execute(tr, s, 1, func(repro.NodeID) error { return nil })
	var dead *repro.ErrDeadlock
	if !errors.As(execErr, &dead) {
		t.Fatalf("executor deadlock is %T, want *repro.ErrDeadlock", execErr)
	}
}

// A constructor that fails returns a nil Scheduler, not a nil pointer
// boxed in a non-nil interface that a caller testing s == nil would go
// on to call.
func TestPublicSchedulerNilOnError(t *testing.T) {
	tr, err := repro.SyntheticTree(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	cp := repro.CriticalPathOrder(tr) // not topological: no activation order
	for _, c := range []struct {
		name  string
		build func(*repro.Tree, float64, *repro.Order, *repro.Order) (repro.Scheduler, error)
	}{{"MemBooking", repro.NewMemBooking}, {"Activation", repro.NewActivation}} {
		s, err := c.build(tr, 1e9, cp, cp)
		if err == nil {
			t.Fatalf("%s: a non-topological activation order was accepted", c.name)
		}
		if s != nil {
			t.Errorf("%s: error %q came with a non-nil Scheduler %T", c.name, err, s)
		}
	}
}
