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
)

// violation checks the cluster-state invariants that must hold between
// any two transitions — the ledgers, one place per job, relOrder, and
// who owns which pooled scheduler — and returns the first one broken
// ("" when all hold). It lives here, not in the production loop: Run
// pays for no per-event assertion.
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
	for _, s := range []struct {
		name string
		js   []*job
	}{{"queue", c.queue}, {"retryQ", c.retryQ}, {"active", c.active}} {
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
	// relOrder: the active set, sorted by (estEnd, slice, idx).
	if len(c.relOrder) != len(c.active) {
		return fmt.Sprintf("relOrder has %d jobs, active %d", len(c.relOrder), len(c.active))
	}
	for k, j := range c.relOrder {
		if where[j] != "active" {
			return fmt.Sprintf("relOrder holds %q, which is not active", j.spec.Name)
		}
		if k == 0 {
			continue
		}
		p := c.relOrder[k-1]
		if p == j {
			return fmt.Sprintf("relOrder holds %q twice", j.spec.Name)
		}
		pk, jk := []float64{p.estEnd, p.slice, float64(p.idx)}, []float64{j.estEnd, j.slice, float64(j.idx)}
		if slices.Compare(pk, jk) >= 0 {
			return fmt.Sprintf("relOrder out of order at %d: %v before %v", k, pk, jk)
		}
	}
	return ""
}

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

// TestClusterInvariantsEveryTransition drives the cluster state machine
// by hand — the same transitions in the same order as Run — over the
// chaos grid (every fault class × checkpoint policy, EASY backfilling,
// a pool tight enough to queue), and checks the state invariants after
// every transition rather than only on the final Result: the memory and
// processor ledgers balance, free slots match free processors, relOrder
// is the sorted active set, no job sits in two of queue, retryQ and
// active, and a job holds a pooled scheduler exactly while it is active,
// never one another job holds; after advance and after complete — the
// states strike reads — the cached fault epochs are checked against a
// twin plan. The stepped run must also equal Run's own result, which
// pins this loop to the production one.
func TestClusterInvariantsEveryTransition(t *testing.T) {
	specs, mem := faultStream(t, 21, 14)
	chaosGrid(func(name string, mk func() *FaultOptions) {
		c, err := newCluster(specs, &Options{Procs: 3, Mem: mem, Policy: EASY{}, Faults: mk()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		twin, prev := mk().Plan, 0.0
		transitions := 0
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
		for {
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
		if n := len(c.queue) + len(c.retryQ) + len(c.active); n != 0 {
			t.Fatalf("%s: %d jobs still in the cluster at the end", name, n)
		}
		got, err := c.result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Run(specs, &Options{Procs: 3, Mem: mem, Policy: EASY{}, Faults: mk()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the hand-stepped run diverged from Run", name)
		}
		if got.Restarts == 0 && got.FailedJobs == 0 {
			t.Logf("%s: no fault struck; invariants checked on the fault-free path only", name)
		}
	})
}

// TestViolationSeesSchedulerAliases gives the ownership invariant its
// teeth: on a cluster stepped to an instant with two active jobs, one
// queued and one recorded, each way a scheduler reference can outlive
// its Put — the only pool-contract breach that neither panics nor moves
// a digest by itself — is planted by hand and must be reported.
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
	for recorded == nil || len(c.active) < 2 || len(c.queue) == 0 {
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
		{"a queued job still holds one", c.queue[0], a.sched, "holds a scheduler but is not active (queue)"},
		{"a recorded job still holds one", recorded, a.sched, "holds a scheduler but is not active (outside the cluster)"},
	} {
		kept := plant.holder.sched
		plant.holder.sched = plant.sched
		if msg := c.violation(); !strings.Contains(msg, plant.want) {
			t.Errorf("%s: violation() = %q, want it to say %q", plant.name, msg, plant.want)
		}
		plant.holder.sched = kept
	}
	if msg := c.violation(); msg != "" {
		t.Fatalf("after undoing the plants: %s", msg)
	}
}
