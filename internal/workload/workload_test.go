package workload

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/tree"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}

func TestRNGExpMoments(t *testing.T) {
	// Mean 1/rate and variance 1/rate² at several rates.
	for _, rate := range []float64{0.25, 1, 4} {
		r := NewRNG(2)
		sum, sumSq := 0.0, 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			x := r.Exp(rate)
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("Exp(%g) returned %v", rate, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean*rate-1) > 0.02 {
			t.Fatalf("Exp(%g) mean %v, want ≈%v", rate, mean, 1/rate)
		}
		if math.Abs(variance*rate*rate-1) > 0.05 {
			t.Fatalf("Exp(%g) variance %v, want ≈%v", rate, variance, 1/(rate*rate))
		}
	}
}

func TestRNGExpDeterministicAndScaled(t *testing.T) {
	// Deterministic per seed, and Exp(rate) is exactly Exp(1)/rate on the
	// same stream (one uniform per draw).
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		x, y := a.Exp(2), b.Exp(2)
		if x != y {
			t.Fatal("Exp stream is not deterministic")
		}
	}
	a, b = NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if got, want := a.Exp(4), b.Exp(1)/4; got != want {
			t.Fatalf("Exp(4) = %v, want Exp(1)/4 = %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Exp accepted a non-positive rate")
		}
	}()
	NewRNG(1).Exp(0)
}

// Exp must reject every rate that is not a positive finite number: a
// NaN fails the sign check, but +Inf passes it and would yield
// all-zero gaps without the explicit finiteness guard.
func TestRNGExpRejectsNonFiniteRate(t *testing.T) {
	for _, rate := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", rate)
				}
			}()
			NewRNG(1).Exp(rate)
		}()
	}
}

func TestRNGPickDistribution(t *testing.T) {
	r := NewRNG(3)
	w := []float64{0.58, 0.17, 0.08, 0.08, 0.08}
	counts := make([]int, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	for i, c := range counts {
		got := float64(c) / n
		want := w[i] / total
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Pick(%d) frequency %v, want %v", i, got, want)
		}
	}
}

func TestSyntheticSizeAndAttributes(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000, 10000} {
		rng := NewRNG(7)
		tr := MustSynthetic(rng, SyntheticOptions{Nodes: n})
		if tr.Len() != n {
			t.Fatalf("size %d, want %d", tr.Len(), n)
		}
		for i := 0; i < n; i++ {
			id := tree.NodeID(i)
			f := tr.Out(id)
			if f < 10 || f > 10000 {
				t.Fatalf("edge weight %v outside [10,10000]", f)
			}
			if math.Abs(tr.Exec(id)-0.1*f) > 1e-9 {
				t.Fatalf("exec data %v != 0.1·%v", tr.Exec(id), f)
			}
			if tr.Time(id) != f {
				t.Fatalf("time %v not proportional to weight %v", tr.Time(id), f)
			}
		}
	}
	if _, err := Synthetic(NewRNG(1), SyntheticOptions{Nodes: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := MustSynthetic(NewRNG(11), SyntheticOptions{Nodes: 500})
	b := MustSynthetic(NewRNG(11), SyntheticOptions{Nodes: 500})
	for i := 0; i < 500; i++ {
		id := tree.NodeID(i)
		if a.Parent(id) != b.Parent(id) || a.Out(id) != b.Out(id) {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestSyntheticDegreeDistribution(t *testing.T) {
	tr := MustSynthetic(NewRNG(17), SyntheticOptions{Nodes: 60000})
	counts := make(map[int]int)
	internal := 0
	for i := 0; i < tr.Len(); i++ {
		d := tr.Degree(tree.NodeID(i))
		if d > 0 {
			counts[d]++
			internal++
		}
		if d > 5 {
			t.Fatalf("degree %d exceeds 5", d)
		}
	}
	// Degree 1 should clearly dominate (0.58 of the distribution).
	if f := float64(counts[1]) / float64(internal); f < 0.5 || f > 0.66 {
		t.Fatalf("degree-1 frequency %v, want ≈0.586", f)
	}
}

func TestSyntheticCorpus(t *testing.T) {
	c := SyntheticCorpus(1, 3, []int{100, 200})
	if len(c) != 6 {
		t.Fatalf("corpus size %d, want 6", len(c))
	}
	seen := map[string]bool{}
	for _, inst := range c {
		if seen[inst.Name] {
			t.Fatalf("duplicate name %s", inst.Name)
		}
		seen[inst.Name] = true
		if err := inst.Tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAssemblyCorpusSmall(t *testing.T) {
	opt := AssemblyCorpusOptions{
		Grids2D:       []int{10},
		Grids3D:       []int{5},
		RandomN:       []int{200},
		Bands:         [][2]int{{500, 2}},
		Amalgamations: []int{1, 6},
	}
	c, err := AssemblyCorpus(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 8 {
		t.Fatalf("corpus size %d, want 8", len(c))
	}
	for _, inst := range c {
		if err := inst.Tree.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if inst.Tree.Len() < 2 {
			t.Fatalf("%s: degenerate tree", inst.Name)
		}
	}
}

func TestChainAndStarShapes(t *testing.T) {
	ch, err := Chain(NewRNG(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	if ch.Height() != 100 || ch.MaxDegree() != 1 {
		t.Fatalf("chain shape: height %d maxdeg %d", ch.Height(), ch.MaxDegree())
	}
	st, err := Star(NewRNG(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Height() != 2 || st.MaxDegree() != 99 {
		t.Fatalf("star shape: height %d maxdeg %d", st.Height(), st.MaxDegree())
	}
	for _, bad := range []int{0, -1} {
		if _, err := Chain(NewRNG(1), bad); err == nil {
			t.Fatal("chain accepted non-positive size")
		}
		if _, err := Star(NewRNG(1), bad); err == nil {
			t.Fatal("star accepted non-positive size")
		}
	}
}

func TestNorm(t *testing.T) {
	rng := NewRNG(17)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := rng.Norm()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("Norm returned %v", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance %v, want ≈ 1", variance)
	}
	// Deterministic per seed.
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 10; i++ {
		if a.Norm() != b.Norm() {
			t.Fatal("Norm stream is not deterministic")
		}
	}
}

// FNV1a is hash/fnv's New64a over the concatenated parts, however the
// bytes are split into parts.
func TestFNV1aMatchesHashFNV(t *testing.T) {
	for _, parts := range [][]string{
		nil, {""}, {"a"}, {"job", "\x00", "inst"}, {"jöb", "", "stream/job-0417"},
		{strings.Repeat("xyz", 100)}, {"\xff\x00", "\x80"},
	} {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(parts, "")))
		if got, want := FNV1a(parts...), h.Sum64(); got != want {
			t.Errorf("FNV1a(%q) = %#x, hash/fnv says %#x", parts, got, want)
		}
	}
}
