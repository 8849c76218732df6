package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// goldenSeed is the seed golden.json was recorded at. At any other seed
// (or at smoke scale) the goldens are skipped; self-consistency across
// passes and the invariants remain.
const goldenSeed = 7

//go:embed golden.json
var goldenFile []byte

// goldens maps a checked output (a stream workload, or
// sweep_paper.<experiment>) to its digest at goldenSeed, full scale.
// Digests cover float results, so they hold for the recorded
// architecture only: Go may fuse multiply-adds elsewhere.
var goldens = func() (g struct {
	Arch    string            `json:"arch"`
	Digests map[string]string `json:"digests"`
}) {
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err))
	}
	return g
}()

// checkGolden records an output's digest and, where the goldens apply,
// compares it.
func checkGolden(chk *checker, key string, seed uint64, smoke bool, digest uint64) string {
	got := fmt.Sprintf("%016x", digest)
	chk.golden(key, got)
	if seed != goldenSeed || smoke || goldens.Arch != runtime.GOARCH {
		return ""
	}
	if want, ok := goldens.Digests[key]; ok && want != got {
		return fmt.Sprintf("%s: digest %s differs from golden %s", key, got, want)
	}
	return ""
}

// goldenFrom prints a golden.json from the results in dir, which must
// come from a full-scale run at goldenSeed.
func goldenFrom(dir string) error {
	g := goldens
	g.Arch, g.Digests = runtime.GOARCH, map[string]string{}
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, w.Name+".json"))
		if err != nil {
			return err
		}
		var out outcome
		if err := json.Unmarshal(data, &out); err != nil {
			return err
		}
		if out.Seed != goldenSeed || out.Scale != "full" {
			return fmt.Errorf("%s: goldens are recorded at seed %d, full scale", w.Name, goldenSeed)
		}
		for k, v := range out.Digests {
			g.Digests[k] = v
		}
	}
	text, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(text))
	return nil
}

// manifestJSON renders BENCHMARK.json from the tables in this package,
// so the file and the program cannot name different metrics.
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command: []string{"sh", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, Workloads: workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return out
}

// compare is the repeat check: two sets of results of the same code and
// seed must agree within each end-to-end metric's bound, and on every
// exact metric entirely. It prints the observed difference beside each
// bound.
func compare(dirA, dirB string) bool {
	ok := true
	load := func(dir, file string) *outcome {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			fmt.Printf("FAIL  %v\n", err)
			ok = false
			return nil
		}
		var out outcome
		if err := json.Unmarshal(data, &out); err != nil {
			fmt.Printf("FAIL  %s: %v\n", file, err)
			ok = false
			return nil
		}
		return &out
	}
	for _, w := range workloads {
		a, b := load(dirA, w.Name+".json"), load(dirB, w.Name+".json")
		if a != nil && b != nil {
			if a.SchemaVersion != b.SchemaVersion || a.Seed != b.Seed {
				fmt.Printf("FAIL  %s: the sets differ in schema or seed\n", w.Name)
				ok = false
				continue
			}
			for _, d := range endToEnd {
				va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
				diff := math.Abs(va-vb) / math.Min(va, vb)
				verdict := "ok  "
				if !(diff <= d.Bound) {
					verdict, ok = "FAIL", false
				}
				fmt.Printf("%s  %-16s %-12s %12.6g %12.6g %-5s differ %5.1f%%  bound %4.1f%%\n",
					verdict, w.Name, d.Name, va, vb, d.Unit, 100*diff, 100*d.Bound)
			}
		}
		a, b = load(dirA, w.Name+"-trace.json"), load(dirB, w.Name+"-trace.json")
		if a == nil || b == nil {
			continue
		}
		exact, same := 0, 0
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			exact++
			if va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value; va != vb {
				fmt.Printf("FAIL  %-16s %-28s %v != %v: an exact count must repeat\n", w.Name, d.Name, va, vb)
				ok = false
				continue
			}
			same++
		}
		fmt.Printf("ok    %-16s %d of %d exact counts identical\n", w.Name, same, exact)
	}
	return ok
}
