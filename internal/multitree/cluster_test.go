package multitree

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/order"
	"repro/internal/workload"
)

// violation checks the cluster-state invariants that must hold between
// any two transitions — the ledgers, one place per job, the release
// order, who owns which pooled scheduler, that the derived state
// (positions, ready bits) equals what a rebuild from the job lists would
// give, and that every snapshot entry still reads what its job says (a
// policy writing through the snapshot breaks exactly that) — and returns
// the first one broken ("" when all hold). It lives here, not in the production loop: Run pays for no
// per-event assertion.
func (c *cluster) violation() string {
	reserved, running := 0.0, 0
	where := make(map[*job]string, len(c.jobs))
	place := func(set string, js []*job) string {
		for _, j := range js {
			if prev, dup := where[j]; dup {
				return fmt.Sprintf("job %q is in both %s and %s", j.spec.Name, prev, set)
			}
			where[j] = set
		}
		return ""
	}
	queued := make([]*job, len(c.st.Queue))
	for k := range queued {
		queued[k] = c.st.Queue[k].j
	}
	for _, s := range []struct {
		name string
		js   []*job
	}{{"queue", queued}, {"retryQ", c.retryQ}, {"active", c.active}} {
		if msg := place(s.name, s.js); msg != "" {
			return msg
		}
	}
	// Ownership of pooled schedulers: a job holds one exactly while it is
	// active, and no two jobs hold the same one. A reference kept past
	// retire would alias the next job the pool hands the instance to.
	owner := make(map[*core.MemBooking]*job, len(c.active))
	for _, j := range c.active {
		reserved += j.slice
		running += j.running
		if j.sched == nil {
			return fmt.Sprintf("active job %q has no scheduler", j.spec.Name)
		}
		if o, shared := owner[j.sched]; shared {
			return fmt.Sprintf("active jobs %q and %q share one scheduler", o.spec.Name, j.spec.Name)
		}
		owner[j.sched] = j
	}
	for i := range c.jobs {
		if j := &c.jobs[i]; j.sched != nil && where[j] != "active" {
			return fmt.Sprintf("job %q holds a scheduler but is not active (%s)", j.spec.Name, cmp.Or(where[j], "outside the cluster"))
		}
	}
	if got := c.freeMem + reserved; math.Abs(got-c.opt.Mem) > c.eps {
		return fmt.Sprintf("freeMem %g + Σ active slices %g = %g, want Mem %g", c.freeMem, reserved, got, c.opt.Mem)
	}
	if c.freeProcs+c.runningT != c.opt.Procs {
		return fmt.Sprintf("freeProcs %d + runningT %d != Procs %d", c.freeProcs, c.runningT, c.opt.Procs)
	}
	if len(c.freeSlots) != c.freeProcs {
		return fmt.Sprintf("%d free slots for %d free processors", len(c.freeSlots), c.freeProcs)
	}
	if running != c.runningT || c.events.Len() != c.runningT {
		return fmt.Sprintf("runningT %d, but Σ job.running = %d and %d completion events pending", c.runningT, running, c.events.Len())
	}
	// The release order: the active set, each entry reading what its job
	// says, sorted by (At, Mem, idx).
	if len(c.st.Releases) != len(c.active) || c.st.Active != len(c.active) {
		return fmt.Sprintf("snapshot has %d releases and Active %d for %d active jobs", len(c.st.Releases), c.st.Active, len(c.active))
	}
	for k, r := range c.st.Releases {
		j := r.j
		if where[j] != "active" {
			return fmt.Sprintf("snapshot release %d holds %q, which is not active", k, j.spec.Name)
		}
		if want := (Release{At: j.estEnd, Mem: j.slice, j: j}); r != want {
			return fmt.Sprintf("snapshot release %d is %+v, job %q now reads %+v", k, r, j.spec.Name, want)
		}
		if k == 0 {
			continue
		}
		p := c.st.Releases[k-1]
		pk, rk := []float64{p.At, p.Mem, float64(p.j.idx)}, []float64{r.At, r.Mem, float64(j.idx)}
		if slices.Compare(pk, rk) >= 0 {
			return fmt.Sprintf("snapshot releases out of order at %d: %v before %v", k, pk, rk)
		}
	}
	// The ready index: positions are current, and bit k is set exactly
	// while active[k] has a task to launch. The second half is also the
	// dispatch-order oracle — the lowest set bit is the job at which a
	// walk of active from the front, Select by Select, would first stop.
	for k, j := range c.active {
		if j.pos != k {
			return fmt.Sprintf("active[%d] is %q, whose pos is %d", k, j.spec.Name, j.pos)
		}
		set := bitSet(c.ready, k)
		if avail := j.sched.Available(); set != (avail > 0) {
			return fmt.Sprintf("ready bit %d (job %q) is %v with %d tasks available", k, j.spec.Name, set, avail)
		}
	}
	for k := len(c.active); k < 64*len(c.ready); k++ {
		if bitSet(c.ready, k) {
			return fmt.Sprintf("ready bit %d is set past the %d active jobs", k, len(c.active))
		}
	}
	for k, q := range c.st.Queue {
		if want := queuedView(q.j); q != want {
			return fmt.Sprintf("snapshot queue entry %d is %+v, job %q now reads %+v", k, q, q.j.spec.Name, want)
		}
	}
	return ""
}

// bitSet reports bit k of a ready-index bit set.
func bitSet(set []uint64, k int) bool { return set[k>>6]>>(k&63)&1 == 1 }

// staleEpoch is the fault-mode invariant of the window between advance
// and strike: every busy slot's cached crash epoch, and while anything
// runs the cached burst epoch, is the first epoch after prev — the
// instant advance left. The oracle is a twin plan built from the same
// (model, seed) as the cluster's own, so its answers owe nothing to the
// cursors and caches under test.
func (c *cluster) staleEpoch(twin *faults.Plan, prev float64) string {
	if c.plan == nil || c.runningT == 0 {
		return ""
	}
	fault := twin.NextBurst(prev)
	if c.burstAt != fault {
		return fmt.Sprintf("cached burst epoch %g, the plan's first after %g is %g", c.burstAt, prev, fault)
	}
	for s := range c.slots {
		if c.slots[s].job == nil {
			continue
		}
		want := twin.NextCrash(s, prev)
		if c.crashAt[s] != want {
			return fmt.Sprintf("slot %d: cached crash epoch %g, the plan's first after %g is %g", s, c.crashAt[s], prev, want)
		}
		fault = min(fault, want)
	}
	// faultAt was taken over the slots busy at advance, a superset of the
	// ones still busy: it may undercut their minimum, never exceed it.
	if c.faultAt > fault || c.faultAt < c.now {
		return fmt.Sprintf("faultAt %g outside [now %g, earliest busy epoch %g]", c.faultAt, c.now, fault)
	}
	return ""
}

// stepped drives the cluster state machine by hand — the same
// transitions in the same order as Run — and checks the state invariants
// after every one rather than only on the final Result; after advance
// and after complete — the states strike reads — the cached fault epochs
// are checked against a twin plan. The run must end with every job out
// of the cluster and equal Run's result on the same inputs, which pins
// this loop to the production one. mk builds the run's options afresh
// on each call (a fault plan is single-use): one for the stepped run,
// one for the twin, one for Run.
func stepped(t *testing.T, name string, specs []JobSpec, mk func() *Options) *Result {
	t.Helper()
	c, err := newCluster(specs, mk())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var twin *faults.Plan
	if fo := mk().Faults; fo != nil {
		twin = fo.Plan
	}
	prev, transitions := 0.0, 0
	check := func(after string) {
		t.Helper()
		transitions++
		msg := c.violation()
		if msg == "" && (after == "advance" || after == "complete") {
			msg = c.staleEpoch(twin, prev)
		}
		if msg != "" {
			t.Fatalf("%s: after %s at t=%g (transition %d): %s", name, after, c.now, transitions, msg)
		}
	}
	check("newCluster")
	// Every iteration but the last commits a task, queues an arrival or a
	// retry, or passes a fault epoch; the cap is far above what the
	// streams stepped here need and only turns a livelock into a failure.
	for iter := 0; ; iter++ {
		if iter == 1<<20 {
			t.Fatalf("%s: no end after %d iterations (t=%g, %d queued, %d active, %d retrying)",
				name, iter, c.now, len(c.st.Queue), len(c.active), len(c.retryQ))
		}
		c.rejoin()
		check("rejoin")
		if err := c.admit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("admit")
		if err := c.dispatch(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("dispatch")
		if idle, err := c.drained(); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if idle {
			break
		}
		prev = c.now
		c.advance()
		check("advance")
		c.complete()
		check("complete")
		c.strike()
		check("strike")
		c.arrive()
		check("arrive")
	}
	if n := len(c.st.Queue) + len(c.retryQ) + len(c.active); n != 0 {
		t.Fatalf("%s: %d jobs still in the cluster at the end", name, n)
	}
	got, err := c.result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := Run(specs, mk())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the hand-stepped run diverged from Run", name)
	}
	return got
}

// TestClusterInvariantsEveryTransition steps the chaos grid (every fault
// class × checkpoint policy, a pool tight enough to queue) under every
// admission policy: the memory and processor ledgers balance, free slots
// match free processors, the releases are the sorted active set, no job sits
// in two of queue, retryQ and active, a job holds a pooled scheduler
// exactly while it is active and never one another job holds, every
// active job knows its position, the ready bits say which schedulers
// have work, and the policy snapshot equals a rebuild of it.
func TestClusterInvariantsEveryTransition(t *testing.T) {
	specs, mem := faultStream(t, 21, 14)
	for _, pol := range allPolicies() {
		chaosGrid(func(name string, mk func() *FaultOptions) {
			name = pol.Name() + "/" + name
			res := stepped(t, name, specs, func() *Options {
				return &Options{Procs: 3, Mem: mem, Policy: pol, Faults: mk()}
			})
			if res.Restarts == 0 && res.FailedJobs == 0 {
				t.Logf("%s: no fault struck; invariants checked on the fault-free path only", name)
			}
		})
	}
}

// TestReadyIndexSpansWords steps a stream that keeps more jobs active
// than one word of the ready index holds, so retirements move bits
// across word boundaries — a state the small chaos and fuzz streams
// never reach.
func TestReadyIndexSpansWords(t *testing.T) {
	specs := stream(t, 3, 100, []int{6, 10}, PoissonArrivals(), 1)
	total := 0.0
	for _, sp := range specs {
		_, pk := order.MinMemPostOrder(sp.Tree)
		total += pk
	}
	for _, pol := range []Policy{FCFS{}, EASY{}} {
		res := stepped(t, pol.Name(), specs, func() *Options { return &Options{Procs: 4, Mem: total, Policy: pol} })
		most := 0
		for _, at := range res.Jobs {
			n := 0
			for _, j := range res.Jobs {
				if j.Start <= at.Start && at.Start < j.Finish {
					n++
				}
			}
			most = max(most, n)
		}
		if most <= 64 {
			t.Fatalf("%s: at most %d jobs were active at once; the ready index never left its first word", pol.Name(), most)
		}
	}
}

// TestDropBit checks the ready index's one non-obvious edit against a
// []bool doing the same thing.
func TestDropBit(t *testing.T) {
	rng := workload.NewRNG(17)
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		for trial := 0; trial < 50; trial++ {
			model := make([]bool, n)
			set := make([]uint64, (n+63)/64)
			for k := range model {
				if rng.Intn(2) == 1 {
					model[k] = true
					set[k>>6] |= 1 << (k & 63)
				}
			}
			k := rng.Intn(n)
			dropBit(set, k)
			model = append(slices.Delete(model, k, k+1), false)
			for i, want := range model {
				if got := bitSet(set, i); got != want {
					t.Fatalf("n=%d: after dropping bit %d, bit %d is %v, want %v", n, k, i, got, want)
				}
			}
		}
	}
}

// FuzzCluster searches where the grid samples: the fuzzer picks the
// stream (seed: which trees, how many jobs, how many processors), the
// admission policy, the fault class, the checkpoint policy and how tight
// the pool is, and every cell is stepped with the invariants checked
// after every transition, must terminate, and must equal Run. The seed
// corpus is the chaos grid under EASY, and
// testdata/fuzz/FuzzCluster holds what the search has found.
func FuzzCluster(f *testing.F) {
	const easy = 3 // EASY's index in allPolicies
	for model := range chaosModels {
		for ck := range chaosCheckpoints {
			f.Add(uint64(21), uint8(easy), uint8(model), uint8(ck), uint8(8))
		}
	}
	// One cell away from the grid per remaining axis: the other policies,
	// no faults, and a pool of exactly one peak.
	f.Add(uint64(21), uint8(0), uint8(3), uint8(1), uint8(8))
	f.Add(uint64(21), uint8(1), uint8(3), uint8(2), uint8(8))
	f.Add(uint64(21), uint8(2), uint8(3), uint8(1), uint8(8))
	f.Add(uint64(5), uint8(easy), uint8(len(chaosModels)), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, policy, faultModel, ckPolicy, memFactor uint8) {
		// Seed 21 with memFactor 8 is the grid's cell: 14 jobs of 40, 80
		// and 120 nodes, 3 processors, a pool of 1.5 peaks.
		n := 1 + int((seed+8)%16)
		procs := 3 + int(seed>>32%6)
		specs := stream(t, seed, n, []int{40, 80, 120}, PoissonArrivals(), 300)
		mem := maxPeak(specs) * (1 + float64(memFactor)/16)
		pol := allPolicies()[int(policy)%len(allPolicies())]
		stepped(t, pol.Name(), specs, func() *Options {
			opt := &Options{Procs: procs, Mem: mem, Policy: pol}
			// One class in five injects nothing.
			if m := int(faultModel) % (len(chaosModels) + 1); m < len(chaosModels) {
				opt.Faults = chaosFaults(chaosModels[m], chaosCheckpoints[int(ckPolicy)%len(chaosCheckpoints)])
			}
			return opt
		})
	})
}

// TestViolationSeesSchedulerAliases gives the ownership invariant its
// teeth: on a cluster stepped to an instant with two active jobs, one
// queued and one recorded, each way a scheduler reference can outlive
// its Put — the only pool-contract breach that neither panics nor moves
// a digest by itself — is planted by hand and must be reported. So are
// the two ways derived state can go stale without a fault: a ready bit
// that disagrees with its scheduler (a job dispatch skips, or visits for
// nothing), and a snapshot queue entry or release that no longer reads
// what its job says (what a policy writing through the snapshot leaves
// behind).
func TestViolationSeesSchedulerAliases(t *testing.T) {
	// All 12 jobs arrive together into a pool of two peaks: some run, the
	// rest queue, and the first completion leaves a recorded job behind.
	specs := stream(t, 5, 12, []int{40, 80, 120}, PoissonArrivals(), 300)
	for i := range specs {
		specs[i].Arrival = 0
	}
	c, err := newCluster(specs, &Options{Procs: 4, Mem: 2 * maxPeak(specs), Policy: FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	var recorded *job
	for recorded == nil || len(c.active) < 2 || len(c.st.Queue) == 0 {
		c.rejoin()
		if err := c.admit(); err != nil {
			t.Fatal(err)
		}
		if err := c.dispatch(); err != nil {
			t.Fatal(err)
		}
		if idle, err := c.drained(); err != nil || idle {
			t.Fatalf("the stream drained (err %v) before two jobs ran beside a queued and a recorded one", err)
		}
		c.advance()
		c.complete()
		c.arrive()
		for i := range c.res.Jobs {
			if c.res.Jobs[i].Nodes > 0 {
				recorded = &c.jobs[i]
			}
		}
	}
	if msg := c.violation(); msg != "" {
		t.Fatalf("before any plant: %s", msg)
	}
	a, b := c.active[0], c.active[1]
	for _, plant := range []struct {
		name   string
		holder *job
		sched  *core.MemBooking
		want   string
	}{
		{"two active jobs share one scheduler", b, a.sched, "share one scheduler"},
		{"a queued job still holds one", c.st.Queue[0].j, a.sched, "holds a scheduler but is not active (queue)"},
		{"a recorded job still holds one", recorded, a.sched, "holds a scheduler but is not active (outside the cluster)"},
	} {
		kept := plant.holder.sched
		plant.holder.sched = plant.sched
		if msg := c.violation(); !strings.Contains(msg, plant.want) {
			t.Errorf("%s: violation() = %q, want it to say %q", plant.name, msg, plant.want)
		}
		plant.holder.sched = kept
	}
	for _, plant := range []struct {
		name   string
		toggle func()
		want   string
	}{
		{"a stale ready bit", func() { c.ready[0] ^= 1 }, "ready bit 0"},
		{"a ready bit past the active jobs", func() { c.ready[0] ^= 1 << len(c.active) }, "past the"},
		{"a stale queue entry", func() { c.st.Queue[0].Peak = -c.st.Queue[0].Peak }, "snapshot queue entry 0"},
		{"a stale release", func() { c.st.Releases[0].At = -c.st.Releases[0].At }, "snapshot release 0"},
	} {
		plant.toggle()
		if msg := c.violation(); !strings.Contains(msg, plant.want) {
			t.Errorf("%s: violation() = %q, want it to say %q", plant.name, msg, plant.want)
		}
		plant.toggle()
	}
	if msg := c.violation(); msg != "" {
		t.Fatalf("after undoing the plants: %s", msg)
	}
}
