package faults

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/workload"
)

// TestTaskFailsDeterministicAndOrderFree: verdicts are pure functions
// of (seed, job, task, attempt) — re-querying in any order replays the
// same answers, and two plans with the same seed agree.
func TestTaskFailsDeterministicAndOrderFree(t *testing.T) {
	m := TaskFailures(0.3)
	a := m.NewPlan(42)
	b := m.NewPlan(42)
	type q struct{ task, attempt int }
	qs := []q{{0, 0}, {5, 2}, {1, 0}, {5, 2}, {999, 7}, {0, 1}}
	var first []bool
	for _, x := range qs {
		first = append(first, a.TaskFails("job", x.task, x.attempt))
	}
	for i := len(qs) - 1; i >= 0; i-- { // reversed order on the twin plan
		if got := b.TaskFails("job", qs[i].task, qs[i].attempt); got != first[i] {
			t.Fatalf("query order changed verdict for %+v", qs[i])
		}
	}
	if a.TaskFails("job", 5, 2) != first[1] {
		t.Fatalf("re-query changed verdict")
	}
}

// TestTaskFailsKeyedByJobSeedAttempt: distinct jobs, seeds and attempts
// draw independently (at rate 0.5 over 200 draws, all-equal outcomes
// are impossible in practice).
func TestTaskFailsKeyedByJobSeedAttempt(t *testing.T) {
	m := TaskFailures(0.5)
	p := m.NewPlan(1)
	q := m.NewPlan(2)
	diffJob, diffSeed, diffAtt := false, false, false
	for i := 0; i < 200; i++ {
		if p.TaskFails("a", i, 0) != p.TaskFails("b", i, 0) {
			diffJob = true
		}
		if p.TaskFails("a", i, 0) != q.TaskFails("a", i, 0) {
			diffSeed = true
		}
		if p.TaskFails("a", i, 0) != p.TaskFails("a", i, 1) {
			diffAtt = true
		}
	}
	if !diffJob || !diffSeed || !diffAtt {
		t.Fatalf("draws not independent: job=%v seed=%v attempt=%v", diffJob, diffSeed, diffAtt)
	}
}

// TestTaskFailureRate: the empirical failure fraction matches the
// model's rate.
func TestTaskFailureRate(t *testing.T) {
	for _, rate := range []float64{0, 0.05, 0.5, 1} {
		p := TaskFailures(rate).NewPlan(7)
		n, fails := 20000, 0
		for i := 0; i < n; i++ {
			if p.TaskFails("j", i, 0) {
				fails++
			}
		}
		got := float64(fails) / float64(n)
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %g: empirical %g", rate, got)
		}
	}
}

// TestPinnedDraws pins name-hashed draws to the values hash/fnv's New64a
// produced before the hash became the inline fnv1a loop: task verdicts,
// jittered delays and run seeds must stay bit-identical, or every
// committed fault schedule (and the benchmark's golden digest) moves.
func TestPinnedDraws(t *testing.T) {
	p := TaskFailures(0.5).NewPlan(42)
	for _, c := range []struct {
		job           string
		task, attempt int
		want          bool
	}{
		{"job", 0, 0, false},
		{"job", 1, 0, true},
		{"job", 2, 0, false},
		{"job", 3, 0, true},
		{"job", 5, 2, false},
		{"job", 999, 7, false},
		{"", 3, 0, true},
		{"a", 0, 0, true},
		{"b", 0, 0, false},
		{"jöb", 1, 1, false},
		{"stream/job-0417", 63, 1, false},
		{"stream/job-0417", 64, 1, true},
	} {
		if got := p.TaskFails(c.job, c.task, c.attempt); got != c.want {
			t.Errorf("TaskFails(%q, %d, %d) = %v, pinned %v", c.job, c.task, c.attempt, got, c.want)
		}
	}
	b := Backoff{Base: 1, Cap: 64, Jitter: 0.5}
	for _, c := range []struct {
		key   string
		retry int
		want  float64
	}{
		{"a", 0, 1.1858654817177046},
		{"a", 3, 9.224001833437029},
		{"b", 3, 11.191503517097125},
		{"", 1, 2.0647071553962792},
		{"job#17", 2, 5.340936111578218},
		{"jöb", 9, 68.32891767928088},
	} {
		if got := b.Delay(c.key, c.retry); got != c.want {
			t.Errorf("Delay(%q, %d) = %v, pinned %v", c.key, c.retry, got, c.want)
		}
	}
	if got := Seed(1, TaskFailures(0.1), "x"); got != 0xdcabac806f8fe8e9 {
		t.Errorf("Seed(1, taskfail(0.1), x) = %#x", got)
	}
	if got := Seed(99, Mixed(0.002, 1e-4, 2e-5), "chaos"); got != 0xde9de4fe00c206a6 {
		t.Errorf("Seed(99, mixed, chaos) = %#x", got)
	}
}

// TestCrashEpochs: per-processor crash streams are strictly increasing,
// deterministic, independent across processors, and query-order free.
func TestCrashEpochs(t *testing.T) {
	m := ProcCrashes(0.1)
	p := m.NewPlan(3)
	var seq []float64
	tcur := 0.0
	for i := 0; i < 50; i++ {
		next := p.NextCrash(0, tcur)
		if next <= tcur {
			t.Fatalf("epoch %g not after %g", next, tcur)
		}
		seq = append(seq, next)
		tcur = next
	}
	// Replay on a fresh plan with non-monotone queries interleaved.
	q := m.NewPlan(3)
	q.NextCrash(0, 1000) // force deep generation first
	if got := q.NextCrash(0, 0); got != seq[0] {
		t.Fatalf("non-monotone query changed stream: %g vs %g", got, seq[0])
	}
	tcur = 0
	for i := range seq {
		got := q.NextCrash(0, tcur)
		if got != seq[i] {
			t.Fatalf("epoch %d: %g vs %g", i, got, seq[i])
		}
		tcur = got
	}
	if p.NextCrash(1, 0) == p.NextCrash(0, 0) {
		t.Fatalf("processors 0 and 1 share a crash stream")
	}
	// A fresh stream asked about a negative time answers with its first
	// epoch, not with a 0 that is no epoch at all.
	if got := m.NewPlan(3).NextCrash(0, -1); got != seq[0] {
		t.Fatalf("NextCrash(0, -1) on a fresh plan = %g, want the first epoch %g", got, seq[0])
	}
	// Mean gap ≈ 1/rate.
	mean := seq[len(seq)-1] / float64(len(seq))
	if mean < 5 || mean > 20 { // 1/rate = 10
		t.Errorf("mean crash gap %g far from 10", mean)
	}
}

// TestBurstEpochs: the cluster-wide stream behaves like the crash
// streams and None() never fires anything.
func TestBurstEpochs(t *testing.T) {
	p := Bursts(0.05).NewPlan(9)
	a := p.NextBurst(0)
	b := p.NextBurst(a)
	if !(a > 0 && b > a) {
		t.Fatalf("burst epochs not increasing: %g %g", a, b)
	}
	if got := p.NextBurst(0); got != a {
		t.Fatalf("re-query changed first burst: %g vs %g", got, a)
	}
	if got := Bursts(0.05).NewPlan(9).NextBurst(-1); got != a {
		t.Fatalf("NextBurst(-1) on a fresh plan = %g, want the first epoch %g", got, a)
	}

	none := None().NewPlan(9)
	if none.TaskFails("j", 0, 0) || !math.IsInf(none.NextCrash(0, 0), 1) || !math.IsInf(none.NextBurst(0), 1) {
		t.Fatalf("None() injected a fault")
	}
}

// naiveStream is the reference the differential test compares against:
// the same Poisson sequence as a Plan's stream — same seed derivation,
// same accumulation — generated eagerly and scanned from index 0.
type naiveStream struct {
	rng    *workload.RNG
	rate   float64
	epochs []float64
}

func (n *naiveStream) after(t float64) float64 {
	last := 0.0
	if k := len(n.epochs); k > 0 {
		last = n.epochs[k-1]
	}
	for len(n.epochs) == 0 || last <= t {
		last += n.rng.Exp(n.rate)
		n.epochs = append(n.epochs, last)
	}
	for _, e := range n.epochs {
		if e > t {
			return e
		}
	}
	panic("unreachable: the prefix extends past t")
}

// TestEpochQueriesMatchNaiveReference fires seeded random queries —
// monotone runs, repeats, backward jumps, restarts from before time 0,
// several processors and the burst stream interleaved, over a horizon
// of thousands of epochs per stream — at one Plan and checks every
// answer against the naive reference.
func TestEpochQueriesMatchNaiveReference(t *testing.T) {
	const (
		procs   = 5
		rate    = 0.5
		horizon = 8000.0 // ≈ 4000 crash epochs per processor, 2000 bursts
		queries = 6000
	)
	for _, seed := range []uint64{1, 7, 0xfeedface} {
		m := Mixed(0, rate, rate/2)
		p := m.NewPlan(seed)
		ref := make([]*naiveStream, procs+1) // [procs] is the burst stream
		for s := range ref {
			key := seed ^ uint64(s)*0x94d049bb133111eb
			r := rate
			if s == procs {
				key, r = seed^0x6275727374, rate/2
			}
			ref[s] = &naiveStream{rng: workload.NewRNG(splitmix64(key)), rate: r}
		}
		ask := func(s int, at float64) float64 {
			if s == procs {
				return p.NextBurst(at)
			}
			return p.NextCrash(s, at)
		}
		rng := workload.NewRNG(seed)
		clock := make([]float64, procs+1)
		for q := 0; q < queries; q++ {
			s := rng.Intn(procs + 1)
			switch u := rng.Float64(); {
			case u < 0.70: // the engines' pattern: time moves on a little
				clock[s] += rng.Exp(rate * 4)
			case u < 0.80: // repeat the previous query
			case u < 0.90: // jump to the epoch just answered (strictness)
				clock[s] = ask(s, clock[s])
			case u < 0.97: // backward jump, anywhere in the past
				clock[s] *= rng.Float64()
			case u < 0.99: // far forward
				clock[s] = horizon * rng.Float64()
			default: // before the stream starts
				clock[s] = -rng.Float64()
			}
			got, want := ask(s, clock[s]), ref[s].after(clock[s])
			if got != want {
				t.Fatalf("seed %d query %d: stream %d after %g = %g, reference %g", seed, q, s, clock[s], got, want)
			}
		}
		for s, r := range ref {
			if len(r.epochs) < 1000 {
				t.Fatalf("seed %d: stream %d saw only %d epochs, the horizon is too short to test anything", seed, s, len(r.epochs))
			}
		}
	}
}

// TestSteadyStateQueriesDoNotAllocate: once a stream's prefix covers
// the queried range, monotone queries move a cursor and nothing else.
func TestSteadyStateQueriesDoNotAllocate(t *testing.T) {
	const procs, horizon = 8, 2000.0
	p := Mixed(0, 0.1, 0.05).NewPlan(5)
	for s := 0; s < procs; s++ {
		p.NextCrash(s, horizon)
	}
	p.NextBurst(horizon)
	at := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		for s := 0; s < procs; s++ {
			p.NextCrash(s, at)
		}
		p.NextBurst(at)
		at += 1.5
	})
	if at >= horizon {
		t.Fatalf("queries ran to %g, past the generated prefix %g", at, horizon)
	}
	if allocs != 0 {
		t.Fatalf("monotone queries inside the generated prefix allocated %g objects per round", allocs)
	}
}

var sinkEpoch float64

// BenchmarkPlanNextCrash sweeps a clock over one processor's stream the
// way the cluster loop does — several queries between two epochs — for
// horizons of 10³, 10⁵ and 10⁶ epochs. ns/query must not grow with the
// horizon: the cursor makes a query O(1), where a rescan of the prefix
// from index 0 made it O(epochs so far).
func BenchmarkPlanNextCrash(b *testing.B) {
	for _, epochs := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			p := ProcCrashes(1).NewPlan(11)
			horizon := float64(epochs)
			p.NextCrash(0, horizon)
			at := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEpoch = p.NextCrash(0, at)
				if at += 0.25; at >= horizon {
					at = 0 // one long walk back per sweep, amortised over 4·epochs queries
				}
			}
		})
	}
}

// TestSeedContentKeyed: Seed differs across models and instances but is
// reproducible.
func TestSeedContentKeyed(t *testing.T) {
	a := Seed(1, TaskFailures(0.1), "x")
	if a != Seed(1, TaskFailures(0.1), "x") {
		t.Fatalf("Seed not reproducible")
	}
	if a == Seed(1, TaskFailures(0.2), "x") || a == Seed(1, TaskFailures(0.1), "y") || a == Seed(2, TaskFailures(0.1), "x") {
		t.Fatalf("Seed collisions across distinct keys")
	}
}

// TestBackoff: the delay doubles from Base, saturates at Cap, jitters
// deterministically within [0, Jitter], and the zero value never waits.
func TestBackoff(t *testing.T) {
	b := Backoff{Base: 2, Cap: 16}
	for i, want := range []float64{2, 4, 8, 16, 16, 16} {
		if got := b.Delay("k", i); got != want {
			t.Fatalf("retry %d: delay %g want %g", i, got, want)
		}
	}
	// A huge retry index must not overflow past the cap.
	if got := b.Delay("k", 500); got != 16 {
		t.Fatalf("retry 500: delay %g want 16", got)
	}
	j := Backoff{Base: 1, Cap: 64, Jitter: 0.5}
	d1 := j.Delay("a", 3)
	if d1 != j.Delay("a", 3) {
		t.Fatalf("jittered delay not deterministic")
	}
	if base := 8.0; d1 < base || d1 > base*1.5 {
		t.Fatalf("jittered delay %g outside [%g, %g]", d1, base, base*1.5)
	}
	if j.Delay("a", 3) == j.Delay("b", 3) {
		t.Fatalf("jitter identical across keys")
	}
	if (Backoff{}).Delay("k", 9) != 0 {
		t.Fatalf("zero-value backoff waited")
	}
}

// TestModelValidation: constructors reject out-of-domain parameters.
func TestModelValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative prob":  func() { TaskFailures(-0.1) },
		"prob over one":  func() { TaskFailures(1.5) },
		"negative crash": func() { ProcCrashes(-1) },
		"inf burst":      func() { Bursts(math.Inf(1)) },
		"nan mixed":      func() { Mixed(0.1, math.NaN(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
