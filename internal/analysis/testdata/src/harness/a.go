// Fixtures for the detfree analyzer. The package is named harness so
// it lands on the determinism boundary exactly like the real
// repro/internal/harness.
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

func wallClock() int64 {
	t := time.Now()    // want `time\.Now in determinism-boundary package harness`
	d := time.Since(t) // want `time\.Since in determinism-boundary package harness`
	return t.UnixNano() + int64(d)
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn in determinism-boundary package harness`
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // explicit source: allowed
	return r.Intn(10)
}

func sorts(xs []int, key []float64) {
	sort.Slice(xs, func(i, j int) bool { return key[xs[i]] < key[xs[j]] }) // want `sort\.Slice with a comparator not proven total`
	sort.Slice(xs, func(i, j int) bool {                                   // total: ends with an index tie-break
		if key[xs[i]] != key[xs[j]] {
			return key[xs[i]] < key[xs[j]]
		}
		return i < j
	})
	sort.SliceStable(xs, func(i, j int) bool { return key[xs[i]] < key[xs[j]] }) // stable: allowed
	slices.SortStableFunc(xs, func(a, b int) int { return a - b })               // stable: allowed
}

func leakAppend(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `map iteration order flows into an append`
	}
	return out
}

func leakPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map iteration order flows into fmt\.Println output`
	}
}

func leakConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `map iteration order flows into a string concatenation`
	}
	return s
}

func leakArgmin(m map[string]float64) string {
	best := ""
	bv := math.Inf(1)
	for k, v := range m {
		if v < bv {
			bv = v
			best = k // want `map iteration order flows into an argmin/argmax comparison`
		}
	}
	return best
}

func countValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // commutative integer accumulation: allowed
	}
	return n
}

func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k // destination is a map: order cannot leak
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want `map iteration order flows into an append`
	}
	sort.Strings(out)
	return out
}
