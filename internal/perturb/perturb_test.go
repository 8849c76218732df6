package perturb_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

func instance(t *testing.T, n int) *tree.Tree {
	t.Helper()
	return workload.MustSynthetic(workload.NewRNG(11), workload.SyntheticOptions{Nodes: n})
}

func TestZeroValueModelRejected(t *testing.T) {
	tr := instance(t, 5)
	var zero perturb.Model
	if _, err := perturb.Realise(tr, zero, 1); err == nil {
		t.Fatal("zero-value model accepted by Realise")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-value Model.Factors did not panic")
		}
	}()
	zero.Factors(3, 1)
}

func TestConstructorsValidateDomains(t *testing.T) {
	cases := map[string]func(){
		"uniform-delta>1":     func() { perturb.Uniform(1.2) },
		"uniform-delta<0":     func() { perturb.Uniform(-0.1) },
		"lognormal-sigma<0":   func() { perturb.Lognormal(-1) },
		"stragglers-p>1":      func() { perturb.Stragglers(1.5, 10) },
		"stragglers-slow<0":   func() { perturb.Stragglers(0.1, -2) },
		"bimodal-p<0":         func() { perturb.Bimodal(-0.1, 0.5, 2) },
		"bimodal-fast<0":      func() { perturb.Bimodal(0.5, -1, 2) },
		"zerodur-p>1":         func() { perturb.ZeroDuration(2) },
		"zerodur-p-nan":       func() { perturb.ZeroDuration(math.NaN()) },
		"lognormal-sigma-nan": func() { perturb.Lognormal(math.NaN()) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-domain parameter accepted")
				}
			}()
			build()
		})
	}
}

func TestFactorsDeterministic(t *testing.T) {
	for _, m := range perturb.DefaultModels() {
		a := m.Factors(500, 42)
		b := m.Factors(500, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: factor %d differs between same-seed draws", m.Name, i)
			}
		}
		c := m.Factors(500, 43)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: different seeds produced identical factors", m.Name)
		}
	}
}

func TestSeedIsContentDerived(t *testing.T) {
	a := perturb.Seed(1, perturb.Lognormal(0.3), "inst")
	if a != perturb.Seed(1, perturb.Lognormal(0.3), "inst") {
		t.Fatal("Seed is not deterministic")
	}
	if a == perturb.Seed(1, perturb.Lognormal(0.6), "inst") {
		t.Fatal("Seed ignores the model")
	}
	if a == perturb.Seed(1, perturb.Lognormal(0.3), "other") {
		t.Fatal("Seed ignores the instance")
	}
	if a == perturb.Seed(2, perturb.Lognormal(0.3), "inst") {
		t.Fatal("Seed ignores the base seed")
	}
	// Pinned to hash/fnv's New64a over name, 0, instance: a moved seed
	// moves every perturbed realisation (and the sweep's robust digest).
	if a != 0xdb8d5b3723e521d9 {
		t.Errorf("Seed(1, lognormal(0.3), inst) = %#x, pinned 0xdb8d5b3723e521d9", a)
	}
	if got := perturb.Seed(7, perturb.Stragglers(0.05, 10), "jöb/42"); got != 0xa5a623f4f3661e33 {
		t.Errorf("Seed(7, stragglers, jöb/42) = %#x, pinned 0xa5a623f4f3661e33", got)
	}
}

func TestModelFactorShapes(t *testing.T) {
	const n = 20000
	t.Run("lognormal-mean-one", func(t *testing.T) {
		fs := perturb.Lognormal(0.5).Factors(n, 7)
		sum := 0.0
		for _, f := range fs {
			if f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				t.Fatalf("invalid factor %v", f)
			}
			sum += f
		}
		if mean := sum / n; math.Abs(mean-1) > 0.05 {
			t.Fatalf("lognormal mean factor %v, want ≈ 1", mean)
		}
	})
	t.Run("uniform-range", func(t *testing.T) {
		for _, f := range perturb.Uniform(0.5).Factors(n, 7) {
			if f < 0.5 || f > 1.5 {
				t.Fatalf("uniform factor %v outside [0.5, 1.5]", f)
			}
		}
	})
	t.Run("stragglers-two-point", func(t *testing.T) {
		slow := 0
		for _, f := range perturb.Stragglers(0.05, 10).Factors(n, 7) {
			switch f {
			case 1:
			case 10:
				slow++
			default:
				t.Fatalf("straggler factor %v, want 1 or 10", f)
			}
		}
		if frac := float64(slow) / n; frac < 0.03 || frac > 0.07 {
			t.Fatalf("straggler fraction %v, want ≈ 0.05", frac)
		}
	})
	t.Run("bimodal-two-point", func(t *testing.T) {
		fast := 0
		for _, f := range perturb.Bimodal(0.5, 0.5, 2).Factors(n, 7) {
			switch f {
			case 0.5:
				fast++
			case 2:
			default:
				t.Fatalf("bimodal factor %v, want 0.5 or 2", f)
			}
		}
		if frac := float64(fast) / n; frac < 0.45 || frac > 0.55 {
			t.Fatalf("fast fraction %v, want ≈ 0.5", frac)
		}
	})
	t.Run("zerodur-zeroes", func(t *testing.T) {
		zeros := 0
		for _, f := range perturb.ZeroDuration(0.2).Factors(n, 7) {
			switch f {
			case 0:
				zeros++
			case 1:
			default:
				t.Fatalf("zerodur factor %v, want 0 or 1", f)
			}
		}
		if frac := float64(zeros) / n; frac < 0.15 || frac > 0.25 {
			t.Fatalf("zero fraction %v, want ≈ 0.2", frac)
		}
	})
}

func TestApplyPerturbsOnlyTimes(t *testing.T) {
	tr := instance(t, 300)
	nominal := make([]float64, tr.Len())
	for i := range nominal {
		nominal[i] = tr.Time(tree.NodeID(i))
	}
	fs := perturb.Lognormal(0.4).Factors(tr.Len(), 3)
	pt, err := perturb.Apply(tr, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		id := tree.NodeID(i)
		if tr.Time(id) != nominal[i] {
			t.Fatalf("Apply mutated the nominal tree at %d", i)
		}
		if want := nominal[i] * fs[i]; pt.Time(id) != want {
			t.Fatalf("perturbed time of %d = %v, want %v", i, pt.Time(id), want)
		}
		if pt.Parent(id) != tr.Parent(id) || pt.Exec(id) != tr.Exec(id) || pt.Out(id) != tr.Out(id) {
			t.Fatalf("Apply changed structure or sizes at %d", i)
		}
	}
}

func TestApplyShortFactorsLeaveTailNominal(t *testing.T) {
	tr := instance(t, 50)
	fs := make([]float64, 20)
	for i := range fs {
		fs[i] = 2
	}
	pt, err := perturb.Apply(tr, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		id := tree.NodeID(i)
		want := tr.Time(id)
		if i < len(fs) {
			want *= 2
		}
		if pt.Time(id) != want {
			t.Fatalf("time of %d = %v, want %v", i, pt.Time(id), want)
		}
	}
	if _, err := perturb.Apply(tr, make([]float64, tr.Len()+1)); err == nil {
		t.Fatal("Apply accepted more factors than nodes")
	}
}

// The package's defining property: a scheduler built from the nominal
// tree, with the nominal memory bound, executes any realisation within
// the bound and to completion — Theorem 1 does not depend on realised
// durations. CheckMemory makes the simulator fail on any violation.
func TestNominalScheduleSurvivesEveryModel(t *testing.T) {
	tr := instance(t, 400)
	ao, peak := order.MinMemPostOrder(tr)
	for _, m := range perturb.DefaultModels() {
		pt, err := perturb.Realise(tr, m, perturb.Seed(1, m, "t400"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewMemBooking(tr, peak, ao, ao)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(pt, 4, s, &sim.Options{CheckMemory: true, Bound: peak, NoSchedTime: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.PeakMem > peak+1e-9 {
			t.Fatalf("%s: peak %v over bound %v", m.Name, res.PeakMem, peak)
		}
	}
}
