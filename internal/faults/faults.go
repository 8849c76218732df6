// Package faults derives deterministic fail-stop fault schedules: the
// substrate of the fault-tolerance experiments, built in the style of
// internal/perturb. The paper's Theorem 1 (any booking-order schedule
// with M ≥ the sequential peak is deadlock-free) is proven for runs in
// which every task finishes; this package makes the complementary
// assumption testable by deciding, purely from a (model, seed) pair,
// which task attempts fail, when each processor crashes, and when
// cluster-wide burst outages strike. The engines (multitree's job
// stream, the live executor) inject those faults and recover through
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
// the corpus or job-stream name). FNV keeps it content-derived, exactly
// like perturb.Seed: the same (base, model, instance) triple names the
// same fault schedule in every process.
func Seed(base uint64, m Model, instance string) uint64 {
	return base ^ fnv1a(fnv1a(fnv1a(fnvOffset, m.Name), "\x00"), instance)
}

// FNV-1a, 64 bit: the content hash behind every name-keyed draw.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a folds s into the running hash h (start from fnvOffset). It is
// hash/fnv's New64a written as a loop over the string, so the per-task
// callers pay no hasher allocation and no []byte conversion.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Plan is the realised fault schedule of one run: the pure function
// (model, seed) → {task-attempt verdicts, crash epochs, burst epochs}.
// Task verdicts are hash-keyed (no shared stream), so queries commute;
// the Poisson epoch streams are generated lazily, one per processor and
// one for bursts, and the generated prefix is kept, so repeated
// NextCrash/NextBurst queries — monotone or not — always see the same
// sequence. A Plan is not safe for concurrent use; engines own one per
// run.
type Plan struct {
	model Model
	seed  uint64

	crash []epochStream // indexed by processor, grown to the highest one queried
	burst epochStream
}

// epochStream is one Poisson epoch sequence: the prefix generated so
// far and a cursor on the answer to the latest query. The engines ask
// with non-decreasing t, so the cursor moves forward by the epochs the
// clock passed — usually none — and a query costs O(1) whatever the
// horizon; a query for an earlier t walks the cursor back over the kept
// prefix. The prefix only ever grows, each epoch the previous one plus
// one draw, so every query order sees one fixed sequence.
type epochStream struct {
	rng    *workload.RNG // nil until the first query
	epochs []float64     // generated prefix, non-decreasing
	cur    int           // epochs[cur] answered the latest query
}

// after returns the first epoch strictly after t, generating from rng
// at the given rate until one exists. A fresh stream always draws its
// first epoch, so no t (not even a negative one) is answered with a
// value that is not in the sequence.
func (s *epochStream) after(rate, t float64) float64 {
	es, i := s.epochs, s.cur
	for i > 0 && es[i-1] > t {
		i--
	}
	for i < len(es) && es[i] <= t {
		i++
	}
	if i == len(es) {
		last := 0.0
		if i > 0 {
			last = es[i-1]
		}
		for {
			last += s.rng.Exp(rate)
			es = append(es, last)
			if last > t {
				break
			}
		}
		s.epochs = es
		i = len(es) - 1
	}
	s.cur = i
	return es[i]
}

// NewPlan realises the model under seed.
func (m Model) NewPlan(seed uint64) *Plan {
	return &Plan{model: m, seed: seed}
}

// Model returns the plan's model.
func (p *Plan) Model() Model { return p.model }

// splitmix64 is the finaliser used to turn a content key into an
// independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TaskFails reports whether the given attempt (0-based) of task in the
// named job fails at its completion. The verdict is a pure function of
// (seed, job, task, attempt): retries of the same attempt index replay
// the same verdict, distinct attempts draw independently.
func (p *Plan) TaskFails(job string, task, attempt int) bool {
	if p.model.TaskRate == 0 {
		return false
	}
	key := p.seed ^ fnv1a(fnvOffset, job)
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
	if proc >= len(p.crash) {
		p.crash = append(p.crash, make([]epochStream, proc+1-len(p.crash))...)
	}
	s := &p.crash[proc]
	if s.rng == nil {
		s.rng = workload.NewRNG(splitmix64(p.seed ^ uint64(proc)*0x94d049bb133111eb))
	}
	return s.after(p.model.CrashRate, t)
}

// NextBurst returns the first cluster-wide outage epoch strictly after
// t (+Inf when the model has no burst process).
func (p *Plan) NextBurst(t float64) float64 {
	if p.model.BurstRate == 0 {
		return math.Inf(1)
	}
	if p.burst.rng == nil {
		p.burst.rng = workload.NewRNG(splitmix64(p.seed ^ 0x6275727374)) // "burst"
	}
	return p.burst.after(p.model.BurstRate, t)
}

// Backoff is capped exponential backoff with deterministic jitter: the
// retry-delay rule shared by the cluster simulator, the live executor
// and the service. Delay(key, retry) = min(Cap, Base·2^retry) stretched
// by up to Jitter (a fraction, e.g. 0.2 for ±0%..+20%) using a draw
// hashed from (key, retry) — deterministic, so simulated fault sweeps
// replay identically, yet decorrelated across jobs so simultaneous
// failures do not retry in lockstep. The zero value disables waiting
// (every delay is 0).
type Backoff struct {
	// Base is the first retry's delay; ≤ 0 means no backoff.
	Base float64
	// Cap bounds the exponential growth (≤ 0 means uncapped).
	Cap float64
	// Jitter is the maximum fractional stretch added on top (< 0 is 0).
	Jitter float64
}

// Delay returns the wait before retry number retry (0-based) of the
// work keyed by key.
func (b Backoff) Delay(key string, retry int) float64 {
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < retry; i++ {
		d *= 2
		if b.Cap > 0 && d >= b.Cap {
			d = b.Cap
			break
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 {
		u := float64(splitmix64(fnv1a(fnvOffset, key)^uint64(retry)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
		d *= 1 + b.Jitter*u
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
