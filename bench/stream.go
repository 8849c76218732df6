package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/multitree"
	"repro/internal/obs"
	"repro/internal/tree"
	"repro/internal/workload"
)

// streamProcs is the shared processor count of every stream workload
// (MakeStream calibrates its arrival rate against the same number).
const streamProcs = 32

// streamBench drives one job stream through multitree.Run, one pass per
// operation. The corpus is a pure function of the seed; arrival times
// are simulated, so a pass is a batch run with no pacing in host time.
type streamBench struct {
	name   string
	opts   func(seed uint64, smoke bool) multitree.StreamOptions
	faulty bool // inject the fail-stop plan and recover through checkpoints

	seed   uint64
	smoke  bool
	specs  []multitree.JobSpec
	info   *multitree.StreamInfo
	digest uint64 // of the first verified pass: later passes must repeat it
	last   *multitree.Result
}

func mixedOptions(seed uint64, smoke bool) multitree.StreamOptions {
	if smoke {
		return multitree.StreamOptions{Seed: seed, Jobs: 60, MaxNodes: 2000}
	}
	return multitree.StreamOptions{Seed: seed, Jobs: 2000, MaxNodes: 20000}
}

func backlogOptions(jobs int) func(uint64, bool) multitree.StreamOptions {
	return func(seed uint64, smoke bool) multitree.StreamOptions {
		o := multitree.StreamOptions{Seed: seed, Jobs: jobs, MinNodes: 50, MaxNodes: 2000, Load: 2}
		if smoke {
			o.Jobs, o.MaxNodes = jobs/50, 500
		}
		return o
	}
}

func faultsOptions(seed uint64, smoke bool) multitree.StreamOptions {
	if smoke {
		return multitree.StreamOptions{Seed: seed, Jobs: 40, MaxNodes: 2000}
	}
	return multitree.StreamOptions{Seed: seed, Jobs: 1000, MaxNodes: 10000}
}

func (b *streamBench) setup(seed uint64, smoke bool) error {
	b.seed, b.smoke = seed, smoke
	o := b.opts(seed, smoke)
	b.specs, b.info = multitree.MakeStream(&o)
	b.digest, b.last = 0, nil
	return nil
}

func (b *streamBench) close() { b.specs, b.info, b.last = nil, nil, nil }

// options builds one pass's options. The fault plan is rebuilt per pass
// (a Plan is stateful) from the same content-derived seed, so every
// pass replays the same schedule.
func (b *streamBench) options(pol multitree.Policy, ob *obs.Observer) *multitree.Options {
	o := &multitree.Options{Procs: streamProcs, Mem: b.info.Mem, Policy: pol, Observer: ob}
	if b.faulty {
		model := faults.Mixed(1e-4, 5e-6, 1e-6)
		o.Faults = &multitree.FaultOptions{
			Plan:       model.NewPlan(faults.Seed(b.seed, model, b.name)),
			MaxRetries: 10,
			Backoff:    faults.Backoff{Base: 50, Cap: 800, Jitter: 0.2},
			Checkpoint: core.CheckpointEvery{K: 64},
		}
	}
	return o
}

// pass runs the stream once and returns its wall time; verification is
// outside the timed region.
func (b *streamBench) pass(pol multitree.Policy, ob *obs.Observer, chk *checker) (time.Duration, error) {
	opt := b.options(pol, ob)
	start := time.Now()
	res, err := multitree.Run(b.specs, opt)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	b.last = res
	chk.op(b.verify(res, chk))
	return wall, nil
}

func (b *streamBench) warm(chk *checker) error {
	_, err := b.pass(multitree.EASY{}, nil, chk)
	return err
}

func (b *streamBench) timed(d time.Duration, chk *checker) (timing, error) {
	tm, err := timedPasses(d, func() (time.Duration, error) { return b.pass(multitree.EASY{}, nil, chk) })
	tm.allocOps = len(tm.latMS) * b.info.Jobs // allocations are reported per job (PR 7's arenas)
	return tm, err
}

// verify checks one pass: the partition invariant, every slice at least
// its peak, every node committed when nothing fails, and a digest of
// the whole schedule that must repeat across passes and match the
// golden at the default seed.
func (b *streamBench) verify(res *multitree.Result, chk *checker) string {
	eps := 1e-9 * (1 + b.info.Mem)
	if !b.faulty && res.Events != b.info.TotalNodes {
		return fmt.Sprintf("%s: committed %d events, corpus has %d nodes", b.name, res.Events, b.info.TotalNodes)
	}
	if res.PeakReserved > b.info.Mem+eps {
		return fmt.Sprintf("%s: reserved %g over the pool %g", b.name, res.PeakReserved, b.info.Mem)
	}
	for i := range res.Jobs {
		if j := &res.Jobs[i]; j.Slice < j.Peak-eps {
			return fmt.Sprintf("%s: job %s ran in slice %g below its peak %g", b.name, j.Name, j.Slice, j.Peak)
		}
	}
	d := streamDigest(res)
	if b.digest == 0 {
		b.digest = d
		return checkGolden(chk, b.name, b.seed, b.smoke, d)
	}
	if d != b.digest {
		return fmt.Sprintf("%s: schedule digest %016x differs from the first pass's %016x", b.name, d, b.digest)
	}
	return ""
}

func streamDigest(res *multitree.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		f(j.Start)
		f(j.Finish)
		f(j.Slice)
		f(float64(j.Attempts))
		if j.Failed {
			f(1)
		} else {
			f(0)
		}
	}
	for _, x := range []float64{res.Makespan, res.BusyTime, res.PeakReserved, float64(res.MaxQueue),
		res.AvgQueue, float64(res.Events), float64(res.Restarts), float64(res.Checkpoints),
		float64(res.FailedJobs), res.WastedWork} {
		f(x)
	}
	return h.Sum64()
}

// timingPolicy decorates an admission policy from outside: it spans and
// counts every Admit call and hands the inner policy's answer back
// unchanged.
type timingPolicy struct {
	inner      multitree.Policy
	tr         *tracer
	calls      int
	admissions int
	queueSum   int
}

func (p *timingPolicy) Name() string { return p.inner.Name() }

func (p *timingPolicy) Admit(st *multitree.State) []multitree.Admission {
	id := p.tr.begin("multitree.admit", int32(p.calls))
	//lint:ignore policypure the decorator only forwards the snapshot to the wrapped policy, which is itself checked for purity
	ads := p.inner.Admit(st)
	p.tr.end(id)
	p.calls++
	p.admissions += len(ads)
	p.queueSum += len(st.Queue)
	return ads
}

func (b *streamBench) traced(tr *tracer, r *results, e2e timing, chk *checker) error {
	untracedMS := summarize(e2e.latMS, "").Value

	// Traced pass: a span around the run, one under it per Admit.
	pol := &timingPolicy{inner: multitree.EASY{}, tr: tr}
	root := tr.begin("multitree.run", 0)
	wall, err := b.pass(pol, nil, chk)
	tr.end(root)
	if err != nil {
		return err
	}
	res := b.last
	events := float64(res.Events)
	r.set("trace.overhead_share", wall.Seconds()*1e3/untracedMS-1)
	r.set("multitree.events", events)
	r.set("multitree.admit_calls", float64(pol.calls))
	r.set("multitree.admissions", float64(pol.admissions))
	if pol.calls > 0 {
		r.set("multitree.admit_yield", float64(pol.admissions)/float64(pol.calls))
		r.set("multitree.queue_len_mean", float64(pol.queueSum)/float64(pol.calls))
	}
	r.set("multitree.queue_len_max", float64(res.MaxQueue))
	admitNS := 0.0
	for _, ns := range selfByName(tr.spans)["multitree.admit"] {
		admitNS += ns
	}

	m := res.Metrics(streamProcs, b.info.Mem, 0)
	r.set("multitree.sim_makespan", res.Makespan)
	r.set("multitree.sim_utilization", m.Utilization)
	r.set("multitree.sim_mean_bsld", m.BSLD.Mean)
	r.set("faults.restarts", float64(res.Restarts))
	r.set("faults.checkpoints", float64(res.Checkpoints))
	r.set("faults.failed_jobs", float64(res.FailedJobs))
	r.set("faults.wasted_work_share", m.WastedFraction)

	if err := b.observed(r, untracedMS, chk); err != nil {
		return err
	}

	// Replay the corpus through the scheduler core and the event heap,
	// then split the untraced per-event cost: what the replays and the
	// admission spans do not explain is the loop's own (glue).
	corpus := make([]prepared, len(b.specs))
	trees := make([]*tree.Tree, len(b.specs))
	for i, sp := range b.specs {
		corpus[i] = prepared{sp.Tree, sp.AO, sp.Peak}
		trees[i] = sp.Tree
	}
	tot, err := coreProbe(tr, r, corpus, streamProcs, 1) // EASY{} grants minimal slices
	if err != nil {
		return err
	}
	nsPerEvent := untracedMS * 1e6 / events
	coreShare := tot.schedNS / events / nsPerEvent
	pqShare := tot.pqueueNS / events / nsPerEvent
	admitShare := admitNS / events / nsPerEvent
	r.set("multitree.core_share", coreShare)
	r.set("multitree.pqueue_share", pqShare)
	r.set("multitree.admit_share", admitShare)
	r.set("multitree.glue_share", 1-coreShare-pqShare-admitShare)
	r.extra("stream_ns_per_event", "ns", nsPerEvent)
	r.extra("multitree.admit_busy_ms", "ms", admitNS/1e6)
	r.extra("multitree.glue_ns_per_event", "ns", nsPerEvent*(1-coreShare-pqShare-admitShare))

	if err := stageProbe(tr, r, sampleTrees(trees, 16), nil, false); err != nil {
		return err
	}
	switch b.name {
	case "stream_mixed":
		return flatnessCurve(r, b.seed, b.smoke)
	case "stream_backlog":
		return b.lengthCurve(r)
	}
	return nil
}

// observed measures the telemetry hook: the cost of an attached
// observer in the daemon's steady state (nobody subscribed), and the
// event counts by kind from a pass with a subscriber and a ring large
// enough to drop nothing.
func (b *streamBench) observed(r *results, untracedMS float64, chk *checker) error {
	best := math.Inf(1)
	var dropped uint64
	for i := 0; i < 2; i++ {
		o := obs.New(&obs.Options{Ring: 1 << 14, SingleProducer: true})
		wall, err := b.pass(multitree.EASY{}, o, chk)
		o.Close()
		if err != nil {
			return err
		}
		best = min(best, wall.Seconds()*1e3)
		dropped = o.DroppedEvents()
	}
	r.set("obs.overhead_share", best/untracedMS-1)
	r.set("obs.dropped_events", float64(dropped))

	// Counting pass. The ring holds a fifth of a second of events at full
	// speed, so only a badly stalled drainer loses any; a lossy pass is
	// repeated, and three in a row fail the run, because the counts would
	// no longer repeat exactly.
	var byKind [obs.KindDone + 1]int
	for attempt := 1; ; attempt++ {
		o := obs.New(&obs.Options{Ring: 1 << 20, Poll: 500 * time.Microsecond, SingleProducer: true})
		sub := o.Subscribe(1 << 14) // frames: room for every event even if the counter stalls
		byKind = [obs.KindDone + 1]int{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range sub.C {
				for _, ev := range f.Events {
					byKind[ev.Kind]++
				}
				f.Release()
			}
		}()
		_, err := b.pass(multitree.EASY{}, o, chk)
		o.Close() // final drain, then closes sub.C
		wg.Wait()
		if err != nil {
			return err
		}
		lost := o.DroppedEvents() + sub.Dropped()
		if lost == 0 {
			break
		}
		if attempt == 3 {
			chk.recheck(fmt.Sprintf("%s: the counting observer lost %d events or frames; counts by kind are incomplete", b.name, lost))
			break
		}
	}
	total := 0
	for kind, n := range byKind {
		total += n
		r.set("obs.events_"+obs.Kind(kind).String(), float64(n))
	}
	r.set("obs.events", float64(total))
	return nil
}

// lengthCurve runs the backlog options at three stream lengths, one
// pass each: a per-event cost that rises with the length means
// something in the loop is superlinear in it.
func (b *streamBench) lengthCurve(r *results) error {
	perEvent := map[int]float64{}
	lengths := []int{500, 2000, 8000}
	for _, jobs := range lengths {
		lb := &streamBench{name: fmt.Sprintf("%s.len%d", b.name, jobs), opts: backlogOptions(jobs)}
		if err := lb.setup(b.seed, b.smoke); err != nil {
			return err
		}
		var chk checker
		wall, err := lb.pass(multitree.EASY{}, nil, &chk)
		if err != nil {
			return err
		}
		if chk.failed > 0 {
			return fmt.Errorf("length curve: %s", chk.msgs[0])
		}
		perEvent[jobs] = float64(wall.Nanoseconds()) / float64(lb.last.Events)
		r.extra(fmt.Sprintf("multitree.ns_per_event.len%d", jobs), "ns", perEvent[jobs])
	}
	r.set("multitree.superlinearity", perEvent[8000]/perEvent[500])
	return nil
}

// flatnessCurve is the paper's §5.1 claim: MemBooking's per-node
// overhead stays level from 10k to 1M nodes and across shapes.
func flatnessCurve(r *results, seed uint64, smoke bool) error {
	big, mid, small := 1000000, 100000, 10000
	if smoke {
		big, mid, small = 4000, 2000, 1000
	}
	random := func(n int) (*tree.Tree, error) {
		return workload.Synthetic(workload.NewRNG(seed+uint64(n)), workload.SyntheticOptions{Nodes: n})
	}
	cells := []struct {
		name  string
		build func() (*tree.Tree, error)
	}{
		{"n10k", func() (*tree.Tree, error) { return random(small) }},
		{"n100k", func() (*tree.Tree, error) { return random(mid) }},
		{"n1M", func() (*tree.Tree, error) { return random(big) }},
		{"chain1M", func() (*tree.Tree, error) { return workload.Chain(workload.NewRNG(seed+1), big) }},
		{"star1M", func() (*tree.Tree, error) { return workload.Star(workload.NewRNG(seed+2), big) }},
	}
	var base float64
	for _, c := range cells {
		t, err := c.build()
		if err != nil {
			return err
		}
		ns, err := schedNSPerNode(t, svcProcs)
		if err != nil {
			return err
		}
		r.extra("core.sched_ns_per_node."+c.name, "ns", ns)
		if c.name == "n10k" {
			base = ns
			continue
		}
		r.set("core.flat_ratio."+c.name, ns/base)
	}
	return nil
}

// sampleTrees picks up to n trees evenly spaced through the corpus.
func sampleTrees(trees []*tree.Tree, n int) []*tree.Tree {
	if len(trees) <= n {
		return trees
	}
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = trees[i*len(trees)/n]
	}
	return out
}
