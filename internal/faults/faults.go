// Package faults derives deterministic fail-stop fault schedules: the
// substrate of the fault-tolerance experiments, built in the style of
// internal/perturb. The paper's Theorem 1 (any booking-order schedule
// with M ≥ the sequential peak is deadlock-free) is proven for runs in
// which every task finishes; this package makes the complementary
// assumption testable by deciding, purely from a (model, seed) pair,
// which task attempts fail, when each processor crashes, and when
// cluster-wide burst outages strike. The one engine that injects them is
// multitree's cluster simulator, which recovers through
// checkpoint/restart and retry-with-backoff; because every draw is a
// pure function of content-derived keys — never of shared RNG stream
// position — the same schedule replays identically whatever order the
// engine queries it in, which is what keeps the `faults` experiment
// byte-identical between serial and parallel sweeps.
package faults

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// Model names one fail-stop fault regime: a per-attempt task failure
// probability, a per-processor crash rate and a cluster-wide outage
// rate. The Name doubles as the sweep engine's cache key, so two models
// with equal names must describe equal schedules.
type Model struct {
	Name string
	// TaskRate is the probability that any single task attempt fails at
	// its completion instant (the work is lost, the attempt must rerun).
	TaskRate float64
	// CrashRate is the rate (events per unit time) of the per-processor
	// fail-stop crash process: a crash kills whatever runs on that
	// processor at the epoch; the processor itself rejoins immediately
	// (fail-stop with instantaneous repair keeps p constant).
	CrashRate float64
	// BurstRate is the rate of cluster-wide outages killing every
	// running task at once — the correlated-failure stress for the
	// partition invariant.
	BurstRate float64
}

// mustProb panics when p is not a probability; constructors validate
// eagerly so an out-of-range parameter fails at the model definition,
// not deep inside a sweep.
func mustProb(name string, p float64) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("faults: %s probability %g outside [0, 1]", name, p))
	}
}

// mustRate panics when a rate is negative, NaN or infinite.
func mustRate(name string, r float64) {
	if !(r >= 0) || math.IsInf(r, 0) {
		panic(fmt.Sprintf("faults: %s rate %g must be non-negative and finite", name, r))
	}
}

// None is the fault-free model: every schedule query answers "no
// fault". Experiments use it as the overhead denominator.
func None() Model { return Model{Name: "none"} }

// TaskFailures fails each task attempt independently with probability p.
func TaskFailures(p float64) Model {
	mustProb("taskfail", p)
	return Model{Name: fmt.Sprintf("taskfail(%g)", p), TaskRate: p}
}

// ProcCrashes crashes each processor as a Poisson process of the given
// rate (mean time between crashes 1/rate per processor).
func ProcCrashes(rate float64) Model {
	mustRate("crash", rate)
	return Model{Name: fmt.Sprintf("crash(%g)", rate), CrashRate: rate}
}

// Bursts strikes cluster-wide outages as a Poisson process of the given
// rate; every task running at a burst epoch is lost.
func Bursts(rate float64) Model {
	mustRate("burst", rate)
	return Model{Name: fmt.Sprintf("burst(%g)", rate), BurstRate: rate}
}

// Mixed combines all three fault classes in one model.
func Mixed(taskP, crashRate, burstRate float64) Model {
	mustProb("mixed task", taskP)
	mustRate("mixed crash", crashRate)
	mustRate("mixed burst", burstRate)
	return Model{Name: fmt.Sprintf("mixed(%g,%g,%g)", taskP, crashRate, burstRate),
		TaskRate: taskP, CrashRate: crashRate, BurstRate: burstRate}
}

// Seed derives the deterministic schedule seed of one run from the
// experiment base seed, the model and an instance key (conventionally
// the corpus or job-stream name). workload.FNV1a keeps it
// content-derived, exactly like perturb.Seed: the same (base, model,
// instance) triple names the same fault schedule in every process.
func Seed(base uint64, m Model, instance string) uint64 {
	return base ^ workload.FNV1a(m.Name, "\x00", instance)
}

// Key is the job half of a per-job draw's content key: the FNV-1a hash
// of the job's name, taken once per job (JobKey) instead of once per
// verdict.
type Key uint64

// JobKey returns the draw key of the named job.
func JobKey(name string) Key { return Key(workload.FNV1a(name)) }

// Plan is the realised fault schedule of one run: the pure function
// (model, seed) → {task-attempt verdicts, crash epochs, burst epochs}.
// Task verdicts are hash-keyed (no shared stream), so queries commute;
// the Poisson epoch streams, one per processor and one for bursts, are
// each fixed by their seed, so repeated NextCrash/NextBurst queries —
// monotone or not — always see the same sequence. A Plan is not safe for
// concurrent use; engines own one per run.
type Plan struct {
	model Model
	seed  uint64

	crash []epochStream // indexed by processor, grown to the highest one queried
	burst epochStream
}

// epochStream is one Poisson epoch sequence, each epoch the previous one
// (0 before the first) plus one draw, kept as its generator and the two
// consecutive epochs around the latest query: prev ≤ t < next. The
// engines ask with non-decreasing t, so a query draws the epochs the
// clock passed — usually none — and costs O(1) whatever the horizon; a
// query before prev redraws the stream from its seed. Its memory does
// not grow with the horizon, and every query order sees one sequence.
type epochStream struct {
	seeded, rng workload.RNG // the generator as seeded, and as drawn up to next
	rate        float64
	prev, next  float64 // prev is −Inf while next is the first epoch
}

func newEpochStream(seed uint64, rate float64) epochStream {
	s := epochStream{seeded: *workload.NewRNG(seed), rate: rate}
	s.redraw()
	return s
}

// redraw rewinds the stream to its first epoch.
func (s *epochStream) redraw() {
	s.rng = s.seeded
	s.prev, s.next = math.Inf(-1), s.rng.Exp(s.rate)
}

// after returns the first epoch strictly after t. Every stream has drawn
// its first epoch, so no t (not even a negative one) is answered with a
// value that is not in the sequence.
func (s *epochStream) after(t float64) float64 {
	if t < s.prev {
		s.redraw()
	}
	for s.next <= t {
		s.prev = s.next
		s.next += s.rng.Exp(s.rate)
	}
	return s.next
}

// NewPlan realises the model under seed.
func (m Model) NewPlan(seed uint64) *Plan {
	p := &Plan{model: m, seed: seed}
	if m.BurstRate > 0 {
		p.burst = newEpochStream(splitmix64(seed^0x6275727374), m.BurstRate) // "burst"
	}
	return p
}

// splitmix64 is the finaliser used to turn a content key into an
// independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TaskFails reports whether the given attempt (0-based) of task in the
// job whose key is job fails at its completion. The verdict is a pure
// function of (seed, job, task, attempt): retries of the same attempt
// index replay the same verdict, distinct attempts draw independently.
func (p *Plan) TaskFails(job Key, task, attempt int) bool {
	if p.model.TaskRate == 0 {
		return false
	}
	key := p.seed ^ uint64(job)
	key = splitmix64(key ^ uint64(task)*0x9e3779b97f4a7c15)
	key = splitmix64(key ^ uint64(attempt)*0xbf58476d1ce4e5b9)
	u := float64(key>>11) / (1 << 53)
	return u < p.model.TaskRate
}

// NextCrash returns the first crash epoch of processor proc strictly
// after time t (+Inf when the model has no crash process). Epochs form
// a Poisson process per processor, deterministic per (seed, proc).
// Processors index a slice, so a negative proc panics.
func (p *Plan) NextCrash(proc int, t float64) float64 {
	if p.model.CrashRate == 0 {
		return math.Inf(1)
	}
	for k := len(p.crash); k <= proc; k++ {
		p.crash = append(p.crash, newEpochStream(splitmix64(p.seed^uint64(k)*0x94d049bb133111eb), p.model.CrashRate))
	}
	return p.crash[proc].after(t)
}

// NextBurst returns the first cluster-wide outage epoch strictly after
// t (+Inf when the model has no burst process).
func (p *Plan) NextBurst(t float64) float64 {
	if p.model.BurstRate == 0 {
		return math.Inf(1)
	}
	return p.burst.after(t)
}

// Backoff is capped exponential backoff with deterministic jitter: the
// cluster simulator's retry-delay rule. Delay(key, retry) =
// min(Cap, Base·2^retry) stretched by up to Jitter (a fraction, e.g. 0.2
// for ±0%..+20%) using a draw hashed from (key, retry) — deterministic,
// so simulated fault sweeps replay identically, yet decorrelated across
// jobs so simultaneous failures do not retry in lockstep. The zero value
// disables waiting (every delay is 0).
type Backoff struct {
	// Base is the first retry's delay; ≤ 0 means no backoff.
	Base float64
	// Cap bounds the exponential growth (≤ 0 means uncapped).
	Cap float64
	// Jitter is the maximum fractional stretch added on top (< 0 is 0).
	Jitter float64
}

// Delay returns the wait before retry number retry (0-based) of the
// job whose key is key.
func (b Backoff) Delay(key Key, retry int) float64 {
	if b.Base <= 0 {
		return 0
	}
	d := b.capped(retry)
	if b.Jitter > 0 {
		u := float64(splitmix64(uint64(key)^uint64(retry)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
		d *= 1 + b.Jitter*u
	}
	return d
}

// Longest bounds Delay(key, retry) from above over every key and every
// retry < retries: the last retry's delay stretched by the full Jitter,
// 0 when there is no retry.
func (b Backoff) Longest(retries int) float64 {
	if b.Base <= 0 || retries == 0 {
		return 0
	}
	return b.capped(retries-1) * (1 + max(b.Jitter, 0))
}

// capped is the delay before jitter, Base·2^retry capped when Cap > 0.
// Ldexp is exact, as doubling retry times is, up to overflow to +Inf.
func (b Backoff) capped(retry int) float64 {
	d := math.Ldexp(b.Base, retry)
	if b.Cap > 0 {
		d = min(d, b.Cap)
	}
	return d
}

// DefaultModels is the grid of the `faults` experiment: the fault-free
// denominator, light and heavy task-attempt failures, processor
// crashes, correlated bursts, and everything at once. The rates are
// tuned to the engines' job-level fail-stop semantics over the
// synthetic corpus (task times O(100), jobs of 40–120 tasks): one
// failed task attempt kills the whole job attempt, so a per-attempt
// task probability q gives per-attempt job survival ≈ (1−q)^n — q
// must be O(1/n) for retries to win, and Poisson rates must be small
// against per-job spans of O(10⁴) time units.
func DefaultModels() []Model {
	return []Model{
		None(),
		TaskFailures(0.001),
		TaskFailures(0.004),
		ProcCrashes(1e-4),
		Bursts(2e-5),
		Mixed(0.001, 5e-5, 1e-5),
	}
}
