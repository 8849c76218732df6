// Package perturb derives perturbed duration realisations of a task
// tree: the substrate of the duration-uncertainty experiments. The
// paper's core claim is that MemBooking is a *dynamic* scheduler whose
// decisions need only the tree shape and the data sizes — task
// durations may be unknown until tasks actually finish. This package
// makes that information asymmetry testable: orders, bookings and
// memory bounds are computed from the *nominal* tree, while the
// simulator (or the live executor) runs a *realisation* in which every
// task's processing time is scaled by a per-task random factor. The
// two trees agree on every memory attribute, so the memory accounting
// — and the Theorem 1 bound — carry over unchanged; only the event
// order moves.
//
// All randomness is seeded and deterministic: a realisation is a pure
// function of (model, seed), with the seed conventionally derived by
// Seed from (base seed, model name, instance name) so that sweeps are
// reproducible cell by cell across engines and processes.
package perturb

import (
	"fmt"
	"math"

	"repro/internal/tree"
	"repro/internal/workload"
)

// Model is a named duration-perturbation model: a distribution of
// per-task multiplicative factors applied to the nominal processing
// times. The Name doubles as the cache key of the sweep engine, so two
// models with equal names must describe equal distributions.
type Model struct {
	Name   string
	factor func(rng *workload.RNG) float64
}

// mustProb panics when p is not a probability; constructors validate
// their domains eagerly so an out-of-range parameter fails at the
// model definition, not as a tree-validation error deep in a sweep.
func mustProb(name string, p float64) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("perturb: %s probability %g outside [0, 1]", name, p))
	}
}

// mustScale panics when a duration multiplier is negative or NaN.
func mustScale(name string, s float64) {
	if !(s >= 0) {
		panic(fmt.Sprintf("perturb: %s scale %g must be non-negative", name, s))
	}
}

// Lognormal is mean-one multiplicative lognormal noise: each duration
// is scaled by exp(σ·N − σ²/2), so the expected realised duration
// equals the nominal one while the spread grows with sigma.
func Lognormal(sigma float64) Model {
	mustScale("lognormal", sigma)
	shift := sigma * sigma / 2
	return Model{
		Name: fmt.Sprintf("lognormal(%g)", sigma),
		factor: func(rng *workload.RNG) float64 {
			return math.Exp(sigma*rng.Norm() - shift)
		},
	}
}

// Uniform scales each duration by a uniform factor in [1−δ, 1+δ]
// (δ ≤ 1 keeps durations non-negative).
func Uniform(delta float64) Model {
	mustProb("uniform delta", delta)
	return Model{
		Name: fmt.Sprintf("uniform(%g)", delta),
		factor: func(rng *workload.RNG) float64 {
			return 1 - delta + 2*delta*rng.Float64()
		},
	}
}

// Stragglers is the heavy-tail model: with probability p a task is a
// straggler running slowdown× longer; everything else is nominal. The
// classic stress for dynamic schedulers — a static schedule computed
// from nominal times places the straggler's ancestors wrongly.
func Stragglers(p, slowdown float64) Model {
	mustProb("stragglers", p)
	mustScale("stragglers slowdown", slowdown)
	return Model{
		Name: fmt.Sprintf("stragglers(%g,%g)", p, slowdown),
		factor: func(rng *workload.RNG) float64 {
			if rng.Float64() < p {
				return slowdown
			}
			return 1
		},
	}
}

// Bimodal splits the tasks into a fast and a slow population: with
// probability pFast a task runs fast× its nominal time, otherwise
// slow×. Models two hardware tiers executing one tree.
func Bimodal(pFast, fast, slow float64) Model {
	mustProb("bimodal", pFast)
	mustScale("bimodal fast", fast)
	mustScale("bimodal slow", slow)
	return Model{
		Name: fmt.Sprintf("bimodal(%g,%g,%g)", pFast, fast, slow),
		factor: func(rng *workload.RNG) float64 {
			if rng.Float64() < pFast {
				return fast
			}
			return slow
		},
	}
}

// ZeroDuration zeroes each duration with probability p: the degenerate
// realisation in which whole subtrees complete instantaneously and
// same-time completion batches become the common case.
func ZeroDuration(p float64) Model {
	mustProb("zerodur", p)
	return Model{
		Name: fmt.Sprintf("zerodur(%g)", p),
		factor: func(rng *workload.RNG) float64 {
			if rng.Float64() < p {
				return 0
			}
			return 1
		},
	}
}

// DefaultModels is the grid of the `robust` experiment: moderate and
// strong lognormal noise, wide uniform noise, rare 10× stragglers, a
// 2×-apart bimodal split, and the zero-duration degenerate case.
func DefaultModels() []Model {
	return []Model{
		Lognormal(0.3),
		Lognormal(0.6),
		Uniform(0.5),
		Stragglers(0.05, 10),
		Bimodal(0.5, 0.5, 2),
		ZeroDuration(0.2),
	}
}

// Seed derives the deterministic RNG seed of one realisation from the
// experiment base seed, the model and an instance key (conventionally
// the workload.Instance name). FNV keeps it content-derived: the same
// (base, model, instance) triple names the same realisation in every
// process, which is what lets the sweep engine memoize perturbed cells
// by (model name, instance) alone.
func Seed(base uint64, m Model, instance string) uint64 {
	return base ^ workload.FNV1a(m.Name, "\x00", instance)
}

// Factors draws one multiplicative factor per task, deterministically
// from seed. Factors are always non-negative and finite. m must come
// from one of the constructors above; a zero-value Model has no
// distribution to draw from.
func (m Model) Factors(n int, seed uint64) []float64 {
	if m.factor == nil {
		panic("perturb: zero-value Model; use a constructor (Lognormal, Uniform, …)")
	}
	rng := workload.NewRNG(seed)
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = m.factor(rng)
	}
	return fs
}

// Apply returns the realisation of t under the given per-task factors:
// time[i] scaled by factors[i]. factors may be shorter than t.Len();
// the tail keeps its nominal times. That asymmetry exists for the
// reduction-tree transform (baseline.ToReductionTree), whose first
// Orig nodes map one-to-one to the nominal tree and whose appended
// fictitious leaves have zero processing time: applying the nominal
// tree's factors to the transformed tree perturbs exactly the original
// tasks.
func Apply(t *tree.Tree, factors []float64) (*tree.Tree, error) {
	if len(factors) > t.Len() {
		return nil, fmt.Errorf("perturb: %d factors for %d nodes", len(factors), t.Len())
	}
	tm := make([]float64, t.Len())
	for i := range tm {
		tm[i] = t.Time(tree.NodeID(i))
		if i < len(factors) {
			tm[i] *= factors[i]
		}
	}
	return t.WithTimes(tm)
}

// Realise is the one-shot convenience: Apply(t, m.Factors(t.Len(), seed)).
func Realise(t *tree.Tree, m Model, seed uint64) (*tree.Tree, error) {
	if m.factor == nil {
		return nil, fmt.Errorf("perturb: model %q has no distribution; use a constructor (Lognormal, Uniform, …)", m.Name)
	}
	return Apply(t, m.Factors(t.Len(), seed))
}
