package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	// Input must be untouched.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) not NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Fatalf("q0.25 = %v, want 2.5", got)
	}
}

func TestMinMax(t *testing.T) {
	s := Summarize([]float64{3, -1, 7})
	if s.Min != -1 || s.Max != 7 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if e := Summarize(nil); !math.IsNaN(e.Min) || !math.IsNaN(e.Max) {
		t.Fatal("empty min/max not NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Mean != 50 || s.Median != 50 {
		t.Fatalf("summary = %+v", s)
	}
	if s.D1 != 10 || s.D9 != 90 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary quantiles = %+v", s)
	}
}

// TestQuantileTable pins the linear-interpolation rule between order
// statistics against hand-computed values: pos = q·(n−1), value =
// sorted[⌊pos⌋]·(1−frac) + sorted[⌊pos⌋+1]·frac.
func TestQuantileTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"single/any-q", []float64{7}, 0.3, 7},
		{"pair/q0", []float64{0, 10}, 0, 0},
		{"pair/q0.1", []float64{0, 10}, 0.1, 1},
		{"pair/q0.9", []float64{0, 10}, 0.9, 9},
		{"pair/q1", []float64{0, 10}, 1, 10},
		{"below-zero-clamps", []float64{3, 1, 2}, -0.5, 1},
		{"above-one-clamps", []float64{3, 1, 2}, 1.5, 3},
		{"triple/q0.5-exact", []float64{1, 2, 3}, 0.5, 2},
		{"triple/q0.25", []float64{1, 2, 3}, 0.25, 1.5},
		{"unsorted/q0.75", []float64{40, 10, 30, 20}, 0.75, 32.5},
		{"five/q0.1", []float64{5, 1, 4, 2, 3}, 0.1, 1.4},
		{"five/q0.9", []float64{5, 1, 4, 2, 3}, 0.9, 4.6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
			}
		})
	}
}

// TestSummarizeTable pins Summarize against hand-computed values and
// verifies every field is NaN on the empty sample.
func TestSummarizeTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"single", []float64{4}, Summary{N: 1, Mean: 4, Median: 4, D1: 4, D9: 4, Min: 4, Max: 4}},
		{"pair", []float64{10, 0}, Summary{N: 2, Mean: 5, Median: 5, D1: 1, D9: 9, Min: 0, Max: 10}},
		{"five-unsorted", []float64{5, 1, 4, 2, 3},
			Summary{N: 5, Mean: 3, Median: 3, D1: 1.4, D9: 4.6, Min: 1, Max: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Summarize(c.xs)
			fields := [][2]float64{
				{got.Mean, c.want.Mean}, {got.Median, c.want.Median},
				{got.D1, c.want.D1}, {got.D9, c.want.D9},
				{got.Min, c.want.Min}, {got.Max, c.want.Max},
			}
			if got.N != c.want.N {
				t.Fatalf("N = %d, want %d", got.N, c.want.N)
			}
			for i, f := range fields {
				if math.Abs(f[0]-f[1]) > 1e-12 {
					t.Fatalf("field %d = %v, want %v (summary %+v)", i, f[0], f[1], got)
				}
			}
		})
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty N = %d", empty.N)
	}
	for i, v := range []float64{empty.Mean, empty.Median, empty.D1, empty.D9, empty.Min, empty.Max} {
		if !math.IsNaN(v) {
			t.Fatalf("empty summary field %d = %v, want NaN", i, v)
		}
	}
}

// Summarize and the one-shot Quantile calls must agree: the shared
// sorted copy may not drift from the public interpolation rule.
func TestSummarizeMatchesQuantile(t *testing.T) {
	xs := []float64{9, 2, 7, 7, 1, 3, 8, 4}
	s := Summarize(xs)
	if s.Median != Median(xs) || s.D1 != Quantile(xs, 0.1) || s.D9 != Quantile(xs, 0.9) {
		t.Fatalf("Summarize disagrees with Quantile: %+v", s)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Fatalf("Summarize extremes disagree: %+v", s)
	}
}

// StepColumns gives each column the highest level it shows: a column
// with samples takes the level it was entered at or any of its
// samples, and a column without holds the level the last sample left.
func TestStepColumns(t *testing.T) {
	// (column, level): 5 from column 0; a spike to 9 and a drop to 2
	// in column 2; 7 in column 5; back to 1 in column 5.
	cols := []int{0, 2, 2, 5, 5}
	vals := []float64{5, 9, 2, 7, 1}
	got := StepColumns(8, len(cols), func(i int) int { return cols[i] }, func(i int) float64 { return vals[i] })
	want := []float64{5, 5, 9, 2, 2, 7, 1, 1}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("columns %v, want %v", got, want)
		}
	}
	// No samples: every column stays at the starting level, 0.
	for c, v := range StepColumns(3, 0, nil, nil) {
		if v != 0 {
			t.Fatalf("column %d of an empty series is %g", c, v)
		}
	}
}
