// Package workload generates the two tree families of the paper's
// simulation study (§7.1): synthetic random trees with the published
// degree and edge-weight distributions, and assembly trees built from the
// sparse-matrix substrate. All generation is deterministic given a seed.
package workload

import "math"

// RNG is a small, fast, deterministic generator (splitmix64 seeded
// xoshiro256**). Using our own keeps corpora byte-identical across Go
// versions, which math/rand does not promise.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded by splitmix64 expansion of seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal value (Box–Muller over two uniform
// draws; both are always consumed, so the stream stays deterministic).
func (r *RNG) Norm() float64 {
	u := r.Float64()
	v := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate): the inter-arrival distribution of a Poisson job
// stream. The draw count per call is a pure function of the stream (a
// zero uniform is redrawn), so sequences stay deterministic per seed.
// It panics on a non-positive or non-finite rate: +Inf passes a bare
// sign check but would silently collapse every gap to zero, turning a
// Poisson stream into a simultaneous batch.
func (r *RNG) Exp(rate float64) float64 {
	if !(rate > 0) || math.IsInf(rate, 1) {
		panic("workload: Exp rate must be positive and finite")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Pick returns an index sampled from the (not necessarily normalised)
// weights.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// FNV1a returns the 64-bit FNV-1a hash of the concatenated parts: the
// content hash behind every name-keyed seed and draw (fault plans,
// perturbation realisations). It is hash/fnv's New64a written as a
// loop over the strings, so callers pay no hasher allocation and no
// []byte conversion.
func FNV1a(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return h
}
