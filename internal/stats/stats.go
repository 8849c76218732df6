// Package stats provides the small aggregation toolkit behind the
// experiment plots and the ASCII charts: means, medians, quantiles,
// summaries, and the column fold of a step series.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between order statistics (NaN for an empty slice).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted reads the q-quantile from an already-sorted non-empty
// sample, so callers needing several quantiles sort once.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary is the five-line aggregate the paper's ribbons use: mean,
// median, first and ninth decile, and extremes.
type Summary struct {
	N            int
	Mean, Median float64
	D1, D9       float64
	Min, Max     float64
}

// Summarize computes a Summary. The sample is copied and sorted once;
// all quantiles and extremes are read from the same sorted copy.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Median, s.D1, s.D9, s.Min, s.Max = nan, nan, nan, nan, nan
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.D1 = quantileSorted(sorted, 0.1)
	s.D9 = quantileSorted(sorted, 0.9)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	return s
}

// StepColumns folds a step series of n samples, in time order, onto
// width chart columns: sample i sets the level to val(i) from column
// col(i) < width on, and the level is 0 before the first. Each column
// gets its highest level — the level it was entered at, or any sample
// in it — so a column with no sample holds the level the last sample
// left, and a momentary spike stays one column wide.
func StepColumns(width, n int, col func(i int) int, val func(i int) float64) []float64 {
	top := make([]float64, width)
	last := make([]float64, width)
	hit := make([]bool, width)
	for i := 0; i < n; i++ {
		c, v := col(i), val(i)
		if hit[c] {
			top[c] = max(top[c], v)
		} else {
			top[c], hit[c] = v, true
		}
		last[c] = v
	}
	level := 0.0
	for c := range top {
		if hit[c] {
			top[c] = max(top[c], level)
			level = last[c]
		} else {
			top[c] = level
		}
	}
	return top
}
