package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/pqueue"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// A probe replays one layer's public entry point on the workload's own
// trees, outside the program, inside a span. The stage probes walk the
// request pipeline of internal/service in its order; the core probes
// replay what multitree.Run does per job.

// serviceDefaults mirror service.Options' documented defaults, which the
// probes (and the output checks) must reproduce to match the handler.
const (
	svcProcs     = 8
	svcMemFactor = 2.0
	svcMaxNodes  = 1 << 20
)

// treeText renders t in the .tree format.
func treeText(t *tree.Tree) string {
	var text strings.Builder
	if err := tree.Write(&text, t); err != nil {
		panic(err) // a strings.Builder never fails
	}
	return text.String()
}

// inlineBody is a POST /schedule body carrying .tree text.
func inlineBody(text string) []byte {
	body, err := json.Marshal(service.Request{Tree: text})
	if err != nil {
		panic(err)
	}
	return body
}

func specBody(seed uint64, nodes int) []byte {
	return []byte(fmt.Sprintf(`{"synthetic":{"seed":%d,"nodes":%d}}`, seed, nodes))
}

// directResponse computes what the service must answer for t under its
// defaults, by calling the layers directly: the reference the output
// checks compare first-sight responses against.
func directResponse(t *tree.Tree) (*service.Response, error) {
	ao, peak := order.MinMemPostOrder(t)
	m := svcMemFactor * peak
	s, err := core.NewMemBooking(t, m, ao, ao)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(t, svcProcs, s, &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true})
	if err != nil {
		return nil, err
	}
	classical := bounds.Classical(t, svcProcs)
	memLB, _ := bounds.Memory(t, m)
	return &service.Response{
		Nodes: t.Len(), Heuristic: s.Name(), Procs: svcProcs, Mem: m, MinMemory: peak,
		Makespan: res.Makespan, PeakMem: res.PeakMem, PeakBooked: res.PeakBooked,
		LowerBound: max(classical, memLB), ClassicalLB: classical, MemoryLB: memLB,
		Utilization: res.Utilization(svcProcs), Events: res.Events,
	}, nil
}

// recorder is the socket-free http.ResponseWriter the handler probe
// serves into.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.hdr }
func (w *recorder) WriteHeader(code int)        { w.code = code }
func (w *recorder) Write(b []byte) (int, error) { return w.body.Write(b) }

// stageProbe replays the request pipeline on each tree, one span per
// stage, and sets the stage metrics to the median per tree. cold
// selects the synthetic-spec pipeline (generate + prepare, no parsing)
// that svc_spec_cold exercises, seeds[i] being the spec that generates
// trees[i]; otherwise the inline pipeline of a cache-resident tree
// (decode + parse, prepare skipped). Every stage is measured on every
// workload; only the attributed sum follows the pipeline.
func stageProbe(tr *tracer, r *results, trees []*tree.Tree, seeds []uint64, cold bool) error {
	srv := service.New(nil)
	defer srv.CloseStreams()
	h := srv.Handler()
	post := func(body []byte) error {
		req, err := http.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body))
		if err != nil {
			return err
		}
		rec := &recorder{code: http.StatusOK, hdr: http.Header{}}
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			return fmt.Errorf("probe handler: status %d: %s", rec.code, rec.body.String())
		}
		return nil
	}
	for i, t := range trees {
		text := treeText(t)
		body := inlineBody(text)
		genSeed := uint64(i)
		if cold {
			genSeed = seeds[i]
			body = specBody(genSeed, t.Len())
		} else if err := post(body); err != nil { // first sight pays preparation; the probe is warm
			return err
		}
		var (
			req    service.Request
			parsed *tree.Tree
			ao     *order.Order
			m      float64
			sched  *core.MemBooking
			res    *sim.Result
			resp   service.Response
		)
		stages := []struct {
			name string
			run  func() error
		}{
			{"service.decode", func() error {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				return dec.Decode(&req)
			}},
			{"tree.parse", func() (err error) {
				if parsed, err = tree.ReadLimited(strings.NewReader(text), svcMaxNodes); err != nil {
					return err
				}
				return parsed.Validate()
			}},
			{"workload.generate", func() error {
				_, err := workload.Synthetic(workload.NewRNG(genSeed), workload.SyntheticOptions{Nodes: t.Len()})
				return err
			}},
			{"order.prepare", func() error {
				var peak float64
				ao, peak = order.MinMemPostOrder(parsed)
				m = svcMemFactor * peak
				return nil
			}},
			{"core.build", func() (err error) {
				sched, err = core.NewMemBooking(parsed, m, ao, ao)
				return err
			}},
			{"sim.run", func() (err error) {
				res, err = sim.Run(parsed, svcProcs, sched, &sim.Options{CheckMemory: true, Bound: m, NoSchedTime: true})
				return err
			}},
			{"bounds", func() error {
				resp.ClassicalLB = bounds.Classical(parsed, svcProcs)
				resp.MemoryLB, _ = bounds.Memory(parsed, m)
				return nil
			}},
			{"service.encode", func() error {
				resp.Nodes, resp.Heuristic, resp.Procs, resp.Mem = parsed.Len(), sched.Name(), svcProcs, m
				resp.Makespan, resp.PeakMem, resp.PeakBooked, resp.Events = res.Makespan, res.PeakMem, res.PeakBooked, res.Events
				_, err := json.Marshal(&resp)
				return err
			}},
			{"service.handler", func() error { return post(body) }},
		}
		for _, st := range stages {
			id := tr.begin(st.name, int32(i))
			err := st.run()
			tr.end(id)
			if err != nil {
				return fmt.Errorf("stage probe %s, tree %d: %w", st.name, i, err)
			}
		}
	}

	byName := selfByName(tr.spans)
	ms := map[string]float64{} // median per stage
	for _, stage := range []string{"service.decode", "tree.parse", "workload.generate", "order.prepare",
		"core.build", "sim.run", "bounds", "service.encode", "service.handler"} {
		metric := stage + "_ms"
		if stage == "bounds" {
			metric = "bounds.ms"
		}
		r.setSamples(metric, scale(byName[stage], 1e-6))
		ms[stage] = r.value(metric)
	}
	attributed := ms["service.decode"] + ms["core.build"] + ms["sim.run"] + ms["bounds"] + ms["service.encode"]
	if cold {
		attributed += ms["workload.generate"] + ms["order.prepare"]
	} else {
		attributed += ms["tree.parse"]
	}
	r.set("service.attributed_share", attributed/ms["service.handler"])
	r.set("service.unattributed_ms", ms["service.handler"]-attributed)
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// prepared is one corpus tree with its activation order and peak.
type prepared struct {
	t    *tree.Tree
	ao   *order.Order
	peak float64
}

func prepare(trees []*tree.Tree) []prepared {
	out := make([]prepared, len(trees))
	for i, t := range trees {
		ao, peak := order.MinMemPostOrder(t)
		out[i] = prepared{t, ao, peak}
	}
	return out
}

// coreTotals are the corpus-wide sums the stream reconciliation needs.
type coreTotals struct {
	nodes    int
	schedNS  float64 // Σ Result.SchedTime
	pqueueNS float64 // event-heap replay
}

// coreProbe replays the corpus through the scheduler core the way
// multitree.Run drives it — pooled MemBooking instances, one sim.Runner
// — at p processors and memFactor × peak memory per job, and replays
// the corpus's task durations through the event heap at p slots.
func coreProbe(tr *tracer, r *results, corpus []prepared, p int, memFactor float64) (coreTotals, error) {
	var (
		tot    coreTotals
		pool   core.MemBookingPool
		runner sim.Runner
	)
	for i, c := range corpus {
		s, err := pool.Get(c.t, memFactor*c.peak, c.ao, c.ao)
		if err != nil {
			return tot, err
		}
		id := tr.begin("core.sched", int32(i))
		res, err := runner.Run(c.t, p, s, nil)
		tr.end(id)
		if err != nil {
			return tot, err
		}
		pool.Put(s)
		tot.nodes += c.t.Len()
		tot.schedNS += float64(res.SchedTime.Nanoseconds())
	}
	r.set("core.sched_ns_per_node", tot.schedNS/float64(tot.nodes))

	// Pool churn per job: what an admission pays before the first task.
	id := tr.begin("core.pool_cycle", -1)
	for _, c := range corpus {
		s, err := pool.Get(c.t, memFactor*c.peak, c.ao, c.ao)
		if err != nil {
			return tot, err
		}
		if err := s.Init(); err != nil {
			return tot, err
		}
		pool.Put(s)
	}
	tr.end(id)
	r.set("core.pool_cycle_ns", spanNS(tr, id)/float64(len(corpus)))

	// Checkpoint and restore at the half-way task boundary of each tree.
	var ckNS, rsNS float64
	var cp *core.Checkpoint
	for i, c := range corpus {
		s, err := pool.Get(c.t, memFactor*c.peak, c.ao, c.ao)
		if err != nil {
			return tot, err
		}
		if err := s.Init(); err != nil {
			return tot, err
		}
		var batch []tree.NodeID
		for done := 0; done < c.t.Len()/2; done += len(batch) {
			batch = append(batch[:0], s.Select(p)...)
			if len(batch) == 0 {
				return tot, fmt.Errorf("checkpoint probe: tree %d stalled at %d of %d", i, done, c.t.Len())
			}
			s.OnFinish(batch)
		}
		cp = s.CheckpointInto(cp) // sizes the reused buffers, as a stream's first snapshot does
		id := tr.begin("core.checkpoint", int32(i))
		cp = s.CheckpointInto(cp)
		tr.end(id)
		ckNS += spanNS(tr, id)
		id = tr.begin("core.restore", int32(i))
		err = s.Restore(cp)
		tr.end(id)
		if err != nil {
			return tot, err
		}
		rsNS += spanNS(tr, id)
		pool.Put(s)
	}
	r.set("core.checkpoint_ns_per_node", ckNS/float64(tot.nodes))
	r.set("core.restore_ns_per_node", rsNS/float64(tot.nodes))

	// The event heap under the stream's access pattern: p slots, one
	// PopBatch per instant, one Push per launched task.
	var (
		heap  pqueue.EventHeap
		ids   []int32
		next  int
		times []float64
	)
	for _, c := range corpus {
		for i := 0; i < c.t.Len(); i++ {
			times = append(times, c.t.Time(tree.NodeID(i)))
		}
	}
	heap.Grow(p)
	id = tr.begin("pqueue.replay", -1)
	for ; next < p && next < len(times); next++ {
		heap.Push(times[next], int32(next))
	}
	for heap.Len() > 0 {
		var now float64
		now, ids = heap.PopBatch(ids[:0])
		for _, slot := range ids {
			if next < len(times) {
				heap.Push(now+times[next], slot)
				next++
			}
		}
	}
	tr.end(id)
	tot.pqueueNS = spanNS(tr, id)
	r.set("pqueue.ns_per_event", tot.pqueueNS/float64(len(times)))
	return tot, nil
}

func spanNS(tr *tracer, id int32) float64 {
	return float64(tr.spans[id].End - tr.spans[id].Start)
}

// schedNSPerNode times one tree through a fresh MemBooking, the §5.1
// per-node overhead figure.
func schedNSPerNode(t *tree.Tree, p int) (float64, error) {
	ao, peak := order.MinMemPostOrder(t)
	s, err := core.NewMemBooking(t, svcMemFactor*peak, ao, ao)
	if err != nil {
		return 0, err
	}
	var runner sim.Runner
	var total time.Duration
	const reps = 2
	for i := 0; i < reps; i++ {
		res, err := runner.Run(t, p, s, nil)
		if err != nil {
			return 0, err
		}
		total += res.SchedTime
	}
	return float64(total.Nanoseconds()) / reps / float64(t.Len()), nil
}
