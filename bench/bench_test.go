package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/multitree"
	"repro/internal/stats"
	"repro/internal/workload"
)

// inputDigest hashes everything a workload's set-up generated from the
// seed: the bytes the program under test will be fed.
func inputDigest(t *testing.T, b bench) uint64 {
	t.Helper()
	h := fnv.New64a()
	trees := func(insts []workload.Instance) {
		for _, inst := range insts {
			fmt.Fprintf(h, "%s\n%s", inst.Name, treeText(inst.Tree))
		}
	}
	switch b := b.(type) {
	case *streamBench:
		for _, sp := range b.specs {
			fmt.Fprintf(h, "%s %x %x\n%s", sp.Name, math.Float64bits(sp.Arrival), math.Float64bits(sp.Peak), treeText(sp.Tree))
		}
	case *svcBench:
		for _, body := range b.bodies {
			h.Write(body)
		}
		fmt.Fprintf(h, "next spec %d", b.nextKey.Load())
	case *sweepBench:
		trees(b.asm)
		trees(b.syn)
	default:
		t.Fatalf("no input digest for %T", b)
	}
	return h.Sum64()
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed uint64) uint64 {
			b := w.make()
			defer b.close()
			if err := b.setup(seed, true); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			return inputDigest(t, b)
		}
		a, again, other := digest(7), digest(7), digest(8)
		if a != again {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

func TestSummarize(t *testing.T) {
	cases := []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 2, 4},
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{[]float64{9}, 9, 9, 9},
	}
	for _, c := range cases {
		s := summarize(c.xs, "ms")
		if s.Value != c.median || s.Q1 != c.q1 || s.Q3 != c.q3 || s.N != len(c.xs) || s.Unit != "ms" {
			t.Errorf("summarize(%v) = %+v, want median %g q1 %g q3 %g", c.xs, s, c.median, c.q1, c.q3)
		}
	}
	if s := summarize(nil, "ms"); s.Value != 0 || s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	// 0..100: the 95th percentile interpolates to exactly 95.
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := stats.Quantile(xs, 0.95); got != 95 {
		t.Errorf("quantile(0..100, 0.95) = %g, want 95", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: [20,30] counts once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "b1", Start: 25, End: 45, Parent: 2},    // nested: comes off b, not off root
		{Name: "late", Start: 95, End: 120, Parent: 0}, // clipped to the parent's end
	}
	want := []int64{100 - (40 + 10 + 5), 20, 30 - 20, 10, 20, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerLinksParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 1)
	kid := tr.begin("kid", 1)
	tr.end(kid)
	sib := tr.begin("sib", 1)
	tr.end(sib)
	tr.end(root)
	if tr.spans[kid].Parent != root || tr.spans[sib].Parent != root || tr.spans[root].Parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[root].Parent, tr.spans[kid].Parent, tr.spans[sib].Parent)
	}
	other := newTracer()
	o := other.begin("other", 2)
	other.end(other.begin("inner", 2))
	other.end(o)
	tr.merge(other)
	if got := tr.spans[4].Parent; got != 3 {
		t.Errorf("merged child's parent = %d, want 3", got)
	}
}

func TestTimingPolicyIsTransparent(t *testing.T) {
	o := backlogOptions(5000)(7, true)
	specs, info := multitree.MakeStream(&o)
	opt := func(pol multitree.Policy) *multitree.Options {
		return &multitree.Options{Procs: streamProcs, Mem: info.Mem, Policy: pol}
	}
	bare, err := multitree.Run(specs, opt(multitree.EASY{}))
	if err != nil {
		t.Fatal(err)
	}
	pol := &timingPolicy{inner: multitree.EASY{}, tr: newTracer()}
	decorated, err := multitree.Run(specs, opt(pol))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, decorated) {
		t.Error("a run under the timing decorator differs from the bare run")
	}
	if pol.calls == 0 || pol.admissions != len(specs) || len(pol.tr.spans) != pol.calls {
		t.Errorf("decorator saw %d calls, %d admissions, %d spans for %d jobs", pol.calls, pol.admissions, len(pol.tr.spans), len(specs))
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(manifestJSON(), '\n'); !bytes.Equal(data, want) {
		t.Error("BENCHMARK.json is out of date: regenerate it with `.bench_build/treebench -manifest > BENCHMARK.json`")
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMeetsTheContract(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
	if m.RunSeconds != runSeconds || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(runSeconds+12) > 3420 {
		t.Errorf("%d runs of %d s plus set-up overrun the driver's 3420 s", runs, runSeconds)
	}
}

// TestSmokeRunEmitsExactlyTheManifest runs every workload at smoke
// scale, untraced and traced: each run reports every metric
// BENCHMARK.json names for its group and nothing else, and every output
// check passes.
func TestSmokeRunEmitsExactlyTheManifest(t *testing.T) {
	m := readManifest(t)
	var e2eNames, layerNames []string
	for _, d := range m.EndToEnd {
		e2eNames = append(e2eNames, d.Name)
	}
	for _, d := range m.PerLayer {
		layerNames = append(layerNames, d.Name)
	}
	sort.Strings(e2eNames)
	sort.Strings(layerNames)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, m.Workloads[i].Name, w.Name)
		}
		for _, trace := range []bool{false, true} {
			out, err := run(w, runConfig{seed: 7, seconds: 0.05, trace: trace, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			want := e2eNames
			if trace {
				want = layerNames
			}
			if got := sortedKeys(out.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t: metrics %v, want %v", w.Name, trace, got, want)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d checks failed: %v", w.Name, trace, out.Failed, out.Attempted, out.Failures)
			}
			if !trace {
				for name, s := range out.Metrics {
					if !(s.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, name, s.Value)
					}
				}
			}
		}
	}
}
