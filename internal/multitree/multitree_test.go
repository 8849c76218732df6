package multitree

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// stream builds a deterministic job stream: n synthetic trees with
// sizes cycling through sizes, arrivals from the model at the given
// mean gap.
func stream(t *testing.T, seed uint64, n int, sizes []int, model ArrivalModel, meanGap float64) []JobSpec {
	t.Helper()
	times := model.Times(seed^0x9e37, n, meanGap)
	specs := make([]JobSpec, n)
	for i := 0; i < n; i++ {
		sz := sizes[i%len(sizes)]
		tr := workload.MustSynthetic(workload.NewRNG(seed+uint64(i)*1000003), workload.SyntheticOptions{Nodes: sz})
		specs[i] = JobSpec{Name: fmt.Sprintf("job%02d", i), Tree: tr, Arrival: times[i]}
	}
	return specs
}

// maxPeak returns the largest sequential peak across the stream.
func maxPeak(specs []JobSpec) float64 {
	m := 0.0
	for _, sp := range specs {
		_, pk := order.MinMemPostOrder(sp.Tree)
		if pk > m {
			m = pk
		}
	}
	return m
}

func allPolicies() []Policy {
	return []Policy{FCFS{}, SBF{}, FairShare{Shares: 3}, EASY{}}
}

// Same seed ⇒ identical job traces, for every policy and arrival
// model: the whole Result must be deeply equal across two independent
// runs (the harness's serial-vs-parallel golden test builds on this).
func TestRunDeterministic(t *testing.T) {
	for _, model := range DefaultArrivalModels() {
		specs := stream(t, 11, 16, []int{60, 150, 300}, model, 400)
		mem := 2 * maxPeak(specs)
		for _, pol := range allPolicies() {
			opt := &Options{Procs: 4, Mem: mem, Policy: pol}
			a, err := Run(specs, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", pol.Name(), model.Name, err)
			}
			b, err := Run(specs, opt)
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", pol.Name(), model.Name, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: two runs of the same stream diverged", pol.Name(), model.Name)
			}
		}
	}
}

// The composition of Theorem 1: any policy that keeps every slice at
// least the job's peak and Σ active slices within the pool never
// surfaces core.ErrDeadlock — exercised under heavy load and a pool
// barely above the largest single job, where queueing is severe.
func TestNoDeadlockWhilePartitionRespectsPool(t *testing.T) {
	for _, model := range DefaultArrivalModels() {
		for _, gap := range []float64{20, 200, 2000} { // overload → light load
			specs := stream(t, 7, 20, []int{40, 120, 250}, model, gap)
			mem := 1.2 * maxPeak(specs)
			for _, pol := range allPolicies() {
				res, err := Run(specs, &Options{Procs: 3, Mem: mem, Policy: pol})
				if err != nil {
					var dead *core.ErrDeadlock
					if errors.As(err, &dead) {
						t.Fatalf("%s/%s gap=%g surfaced a deadlock: %v", pol.Name(), model.Name, gap, err)
					}
					t.Fatalf("%s/%s gap=%g: %v", pol.Name(), model.Name, gap, err)
				}
				for i := range res.Jobs {
					j := &res.Jobs[i]
					if j.Finish == 0 && j.Nodes == 0 {
						t.Fatalf("%s/%s: job %d never completed", pol.Name(), model.Name, i)
					}
					if j.Start < j.Arrival || j.Finish <= j.Start {
						t.Fatalf("%s/%s: job %q lifecycle broken: arrival %g start %g finish %g",
							pol.Name(), model.Name, j.Name, j.Arrival, j.Start, j.Finish)
					}
					if j.Slice < j.Peak {
						t.Fatalf("%s/%s: job %q got slice %g below peak %g", pol.Name(), model.Name, j.Name, j.Slice, j.Peak)
					}
				}
				if res.PeakReserved > mem*(1+1e-9) {
					t.Fatalf("%s/%s: reserved %g over the pool %g", pol.Name(), model.Name, res.PeakReserved, mem)
				}
				if u := res.Utilization(3); u <= 0 || u > 1+1e-9 {
					t.Fatalf("%s/%s: utilization %g out of range", pol.Name(), model.Name, u)
				}
			}
		}
	}
}

// A lone job on the cluster must behave exactly like the per-tree
// simulator running the same scheduler at the same bound: the cluster
// layer adds queueing and partitioning, never a different execution.
func TestSingleJobMatchesSim(t *testing.T) {
	tr := workload.MustSynthetic(workload.NewRNG(3), workload.SyntheticOptions{Nodes: 200})
	ao, peak := order.MinMemPostOrder(tr)
	for _, factor := range []float64{1, 2} {
		m := factor * peak
		sched, err := core.NewMemBooking(tr, m, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(tr, 4, sched, &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run([]JobSpec{{Name: "solo", Tree: tr, Arrival: 0}},
			&Options{Procs: 4, Mem: m, Policy: FairShare{Shares: 1}}) // one share: the slice is all of M
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Jobs[0].Finish; got != want.Makespan {
			t.Fatalf("factor %g: cluster makespan %g, sim makespan %g", factor, got, want.Makespan)
		}
		if res.Events != want.Events {
			t.Fatalf("factor %g: cluster events %d, sim events %d", factor, res.Events, want.Events)
		}
	}
}

// chainTree builds a chain of n tasks with uniform attributes, so the
// memPO peak (out + exec + out for internal nodes) and the runtime
// (fully serial: n × dur) are known exactly.
func chainTree(t *testing.T, n int, exec, out, dur float64) *tree.Tree {
	t.Helper()
	parent := make([]tree.NodeID, n)
	execs := make([]float64, n)
	outs := make([]float64, n)
	durs := make([]float64, n)
	parent[0] = tree.None
	for i := 0; i < n; i++ {
		if i > 0 {
			parent[i] = tree.NodeID(i - 1)
		}
		execs[i], outs[i], durs[i] = exec, out, dur
	}
	return tree.MustNew(parent, execs, outs, durs)
}

// EASY must backfill: with a wide head job blocking FCFS, small jobs
// behind it start strictly earlier under EASY, and the stream still
// completes (no starvation of the head).
func TestEASYBackfills(t *testing.T) {
	// big: peak 210, runtime 5000; small: peak 21, runtime 40.
	big := chainTree(t, 50, 10, 100, 100)
	small := chainTree(t, 4, 1, 10, 10)
	_, bigPeak := order.MinMemPostOrder(big)
	_, smallPeak := order.MinMemPostOrder(small)
	// Pool fits one big job plus both smalls, but not two big jobs.
	mem := bigPeak + 2*smallPeak + 5
	// big0 occupies the pool; big1 queues at t=1 and blocks FCFS; the
	// smalls arrive behind it and fit the leftover.
	specs := []JobSpec{
		{Name: "big0", Tree: big, Arrival: 0},
		{Name: "big1", Tree: big, Arrival: 1},
		{Name: "small0", Tree: small, Arrival: 2},
		{Name: "small1", Tree: small, Arrival: 3},
	}
	fcfs, err := Run(specs, &Options{Procs: 4, Mem: mem, Policy: FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Run(specs, &Options{Procs: 4, Mem: mem, Policy: EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	// Under FCFS the smalls wait behind big1; EASY backfills them into
	// the leftover memory immediately.
	for _, name := range []string{"small0", "small1"} {
		var f, e *JobResult
		for i := range fcfs.Jobs {
			if fcfs.Jobs[i].Name == name {
				f, e = &fcfs.Jobs[i], &easy.Jobs[i]
			}
		}
		if e.Start >= f.Start {
			t.Fatalf("%s: EASY start %g not earlier than FCFS start %g", name, e.Start, f.Start)
		}
	}
	// The blocked head still completes under EASY.
	for i := range easy.Jobs {
		if easy.Jobs[i].Finish <= easy.Jobs[i].Start {
			t.Fatalf("%s never completed under EASY", easy.Jobs[i].Name)
		}
	}
}

// badPolicy admits the queue head with a doctored slice or index.
type badPolicy struct {
	name  string
	admit func(st *State) []Admission
}

func (b badPolicy) Name() string                { return b.name }
func (b badPolicy) Admit(st *State) []Admission { return b.admit(st) }

// The simulator enforces the partition invariant instead of trusting
// policies: slices below the peak, slices over the free pool, bogus
// indices and refusing to admit on an idle cluster are all errors.
func TestPolicyViolationsRejected(t *testing.T) {
	specs := stream(t, 5, 3, []int{80}, UniformArrivals(), 10)
	mem := 4 * maxPeak(specs)
	cases := []badPolicy{
		{"underslice", func(st *State) []Admission {
			return []Admission{{Queue: 0, Slice: st.Queue[0].Peak / 2}}
		}},
		{"overcommit", func(st *State) []Admission {
			return []Admission{{Queue: 0, Slice: st.FreeMem * 4}}
		}},
		{"badindex", func(st *State) []Admission {
			return []Admission{{Queue: len(st.Queue), Slice: st.FreeMem}}
		}},
		{"refusenik", func(st *State) []Admission { return nil }},
	}
	for _, bp := range cases {
		_, err := Run(specs, &Options{Procs: 2, Mem: mem, Policy: bp})
		if err == nil {
			t.Fatalf("%s: violation accepted", bp.name)
		}
	}
}

// A job whose minimal slice exceeds the whole pool can never be
// admitted safely; Run rejects the stream up front — as it does any
// non-finite arrival, which would otherwise poison every time-weighted
// metric.
func TestJobLargerThanPoolRejected(t *testing.T) {
	specs := stream(t, 9, 1, []int{300}, UniformArrivals(), 1)
	_, pk := order.MinMemPostOrder(specs[0].Tree)
	if _, err := Run(specs, &Options{Procs: 2, Mem: pk / 2}); err == nil {
		t.Fatal("oversized job accepted")
	}
	for _, bad := range []float64{math.Inf(1), math.NaN(), -1} {
		specs[0].Arrival = bad
		if _, err := Run(specs, &Options{Procs: 2, Mem: 2 * pk}); err == nil {
			t.Fatalf("arrival %v accepted", bad)
		}
	}
}

func TestArrivalModels(t *testing.T) {
	const n, gap = 400, 25.0
	for _, model := range DefaultArrivalModels() {
		a := model.Times(42, n, gap)
		b := model.Times(42, n, gap)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: arrivals are not deterministic", model.Name)
		}
		last := 0.0
		for i, x := range a {
			if x < last {
				t.Fatalf("%s: arrivals decrease at %d: %g < %g", model.Name, i, x, last)
			}
			last = x
		}
		// Long-run rate ≈ 1/gap for every model.
		mean := a[n-1] / n
		if math.Abs(mean-gap) > 0.2*gap {
			t.Fatalf("%s: mean gap %g, want ≈%g", model.Name, mean, gap)
		}
	}
	// Bursts really are simultaneous.
	bt := BurstArrivals(4).Times(1, 8, 10)
	if bt[0] != bt[3] || bt[4] != bt[7] || bt[0] == bt[4] {
		t.Fatalf("burst4 arrivals not grouped: %v", bt)
	}
}

func TestMetricsSanity(t *testing.T) {
	specs := stream(t, 13, 12, []int{60, 200}, PoissonArrivals(), 50)
	mem := 2 * maxPeak(specs)
	res, err := Run(specs, &Options{Procs: 4, Mem: mem, Policy: SBF{}})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics(4, mem, 0)
	if m.Jobs != len(specs) {
		t.Fatalf("metrics cover %d jobs, want %d", m.Jobs, len(specs))
	}
	if m.BSLD.Min < 1 {
		t.Fatalf("bounded slowdown %g below 1", m.BSLD.Min)
	}
	if m.Response.Min < 0 || m.Wait.Min < 0 {
		t.Fatalf("negative response/wait: %g / %g", m.Response.Min, m.Wait.Min)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Fatalf("utilization %g out of (0,1]", m.Utilization)
	}
	if m.PeakReservedFraction <= 0 || m.PeakReservedFraction > 1+1e-9 {
		t.Fatalf("peak reserved fraction %g out of range", m.PeakReservedFraction)
	}
	if m.MaxQueue < 0 || m.AvgQueue < 0 {
		t.Fatalf("queue stats negative: %d / %g", m.MaxQueue, m.AvgQueue)
	}
}
