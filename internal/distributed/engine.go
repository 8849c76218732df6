package distributed

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Result summarises a distributed execution.
type Result struct {
	// Makespan is the completion time of the whole tree.
	Makespan float64
	// Transfers counts cross-domain output movements; TransferVolume is
	// their total size.
	Transfers      int
	TransferVolume float64
}

// Run executes t on the platform with the given task→domain mapping,
// using a per-domain activation policy: local tasks activate in AO order
// by booking n_i + f_i against their domain's memory; outputs crossing
// domains are admitted into the destination's memory and arrive at the
// instant of their admission. The simulator runs the domains as one
// scheduler on Σ procs processors; a run that stalls is its
// *core.ErrDeadlock, named "distributed".
func Run(t *tree.Tree, plat *Platform, domainOf []int32, ao, eo *order.Order) (*Result, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if len(domainOf) != t.Len() {
		return nil, fmt.Errorf("distributed: mapping covers %d of %d tasks", len(domainOf), t.Len())
	}
	procs := 0
	for _, d := range plat.Domains {
		procs += d.Procs
	}
	for i, d := range domainOf {
		if d < 0 || int(d) >= len(plat.Domains) {
			return nil, fmt.Errorf("distributed: task %d mapped to unknown domain %d", i, d)
		}
	}
	if !ao.TopologicalFor(t) {
		return nil, fmt.Errorf("distributed: activation order %q is not topological", ao.Name)
	}
	s := &domains{t: t, plat: plat, domainOf: domainOf, ao: ao, eo: eo}
	r, err := sim.Run(t, procs, s, &sim.Options{NoSchedTime: true})
	if s.err != nil {
		return nil, s.err
	}
	if err != nil {
		return nil, err
	}
	s.res.Makespan = r.Makespan
	return &s.res, nil
}

// domain is one domain's share of the run: an Activator over its local
// tasks, booking their activations and the transfers it admits, the data
// resident in its memory, its free processors and the outputs waiting.
type domain struct {
	act     baseline.Activator
	used    float64
	free    int
	waiting []tree.NodeID // outputs to admit into its memory, FIFO
}

// domains is the per-domain activation policy as a core.Scheduler. Each
// domain launches only on its own processors, so the simulator's single
// pool of Σ procs never runs short.
type domains struct {
	t        *tree.Tree
	plat     *Platform
	domainOf []int32
	ao, eo   *order.Order
	// ds share one need array (n_i + f_i) and one set of activation
	// flags and input counters: an input is present once it has reached
	// its task's domain.
	ds []domain
	// arriving holds the transfers admitted in the last round, until they
	// arrive.
	arriving []tree.NodeID
	sel      []tree.NodeID
	res      Result
	err      error // the audit's first failure
}

func (s *domains) Name() string { return "distributed" }

func (s *domains) Init() error {
	t := s.t
	need := make([]float64, t.Len())
	for i := range need {
		need[i] = t.Exec(tree.NodeID(i)) + t.Out(tree.NodeID(i))
	}
	s.ds = make([]domain, len(s.plat.Domains))
	local := make([][]tree.NodeID, len(s.ds))
	for _, v := range s.ao.Seq {
		local[s.domainOf[v]] = append(local[s.domainOf[v]], v)
	}
	// Domain 0 holds the shared state, which every domain joins.
	s.ds[0].act.Start(t, nil, need, s.eo)
	for d, pd := range s.plat.Domains {
		s.ds[d].free = pd.Procs
		s.ds[d].act.Join(&s.ds[0].act, local[d])
		if err := s.ds[d].act.Bind("distributed", pd.Mem); err != nil {
			return err
		}
	}
	return nil
}

// OnFinish frees each finished task's execution data and inputs, and
// hands its output to its parent: directly within a domain, through the
// destination's waiting queue across domains. Transfers admitted beside a
// zero-duration launch arrive first, at the same instant (see Select).
func (s *domains) OnFinish(batch []tree.NodeID) {
	s.arrive()
	t := s.t
	for _, j := range batch {
		d := &s.ds[s.domainOf[j]]
		d.free++
		// Every input, local or transferred, lives in this domain's memory.
		freed := t.Exec(j)
		for _, c := range t.Children(j) {
			freed += t.Out(c)
		}
		d.act.Free(freed)
		d.used -= freed
		p := t.Parent(j)
		switch {
		case p == tree.None:
			d.act.Free(t.Out(j))
			d.used -= t.Out(j)
		case s.domainOf[p] == s.domainOf[j]:
			d.act.Release(p)
		default:
			dst := &s.ds[s.domainOf[p]]
			dst.waiting = append(dst.waiting, j)
		}
	}
}

// Select runs the instant's rounds. In a round every domain admits
// waiting transfers FIFO and activates in AO order, then launches on its
// own free processors; the memory is audited; then the admitted
// transfers arrive, and may release tasks for another round. Once a round
// launches a zero-duration task, its transfers instead arrive with that
// task's completion, which the simulator delivers at the same instant:
// arrivals and same-instant completions are then retired together.
func (s *domains) Select(int) []tree.NodeID {
	t := s.t
	s.sel = s.sel[:0]
	for {
		for d := range s.ds {
			s.admit(d)
			s.ds[d].act.Activate()
		}
		zeroTime := false
		for k := range s.ds {
			d := &s.ds[k]
			for _, i := range d.act.Select(d.free) {
				d.free--
				d.used += t.Exec(i) + t.Out(i)
				s.sel = append(s.sel, i)
				zeroTime = zeroTime || t.Time(i) == 0
			}
		}
		s.audit()
		if len(s.arriving) == 0 || zeroTime {
			return s.sel
		}
		s.arrive()
	}
}

func (s *domains) BookedMemory() float64 {
	sum := 0.0
	for d := range s.ds {
		sum += s.ds[d].act.Booked()
	}
	return sum
}

// admit books waiting transfers into domain d's memory, FIFO, while they
// fit.
func (s *domains) admit(d int) {
	dd := &s.ds[d]
	for len(dd.waiting) > 0 {
		c := dd.waiting[0]
		f := s.t.Out(c)
		if !dd.act.Book(f) {
			return
		}
		dd.waiting = dd.waiting[1:]
		dd.used += f
		s.res.Transfers++
		s.res.TransferVolume += f
		s.arriving = append(s.arriving, c)
	}
}

// arrive retires the admitted transfers: each output leaves its source
// domain and counts as an input present at its parent.
func (s *domains) arrive() {
	for _, j := range s.arriving {
		src := &s.ds[s.domainOf[j]]
		src.act.Free(s.t.Out(j))
		src.used -= s.t.Out(j)
		p := s.t.Parent(j)
		s.ds[s.domainOf[p]].act.Release(p)
	}
	s.arriving = s.arriving[:0]
}

// audit records the first domain whose resident data exceeds its
// booking or whose booking exceeds its memory. The simulator's global
// CheckMemory stays off: it would miss a domain over its memory while
// another is under, and its tolerance, 1e-9·(1+ΣM), is tighter than the
// sum of the domains' own, so it could fire where every domain is within
// its bound.
func (s *domains) audit() {
	for d := 0; d < len(s.ds) && s.err == nil; d++ {
		dd := &s.ds[d]
		booked := dd.act.Booked()
		m, tol := dd.act.Bound()
		if dd.used > booked+tol {
			s.err = fmt.Errorf("distributed: domain %d uses %g but booked %g", d, dd.used, booked)
		} else if booked > m+tol {
			s.err = fmt.Errorf("distributed: domain %d booked %g over %g", d, booked, m)
		}
	}
}
