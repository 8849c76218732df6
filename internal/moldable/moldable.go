// Package moldable implements the paper's main "future work" extension
// (§8): scheduling task trees whose tasks are moldable — a task may run
// on q ≥ 1 processors, finishing faster (Amdahl speedup) but needing
// extra per-processor workspace memory. The package resolves the
// trade-off the paper describes: "allocating many processors to big tasks
// (and losing on tree parallelism) versus allocating many tasks in
// parallel (and threatening the memory bound)".
//
// The scheduler composes the unmodified MemBooking core (which still
// guarantees completion: widths beyond 1 are only granted when their
// workspace fits under the bound, so in the worst case every task runs
// sequentially exactly as in the rigid model) with a width-allocation
// rule that spreads leftover processors over the released tasks.
package moldable

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Profile describes how each task of a tree behaves when given more than
// one processor.
type Profile struct {
	// Alpha is the parallelisable fraction of each task (Amdahl's law):
	// on q processors the task takes t_i·((1−α_i) + α_i/q).
	Alpha []float64
	// Workspace is the extra memory a task needs per processor beyond
	// the first.
	Workspace []float64
	// MaxWidth caps the processors a task may use (0 = no cap).
	MaxWidth []int32
}

// Validate checks the profile against a tree.
func (p *Profile) Validate(t *tree.Tree) error {
	n := t.Len()
	if len(p.Alpha) != n || len(p.Workspace) != n || len(p.MaxWidth) != n {
		return fmt.Errorf("moldable: profile arrays must have %d entries", n)
	}
	for i := 0; i < n; i++ {
		if p.Alpha[i] < 0 || p.Alpha[i] > 1 || math.IsNaN(p.Alpha[i]) {
			return fmt.Errorf("moldable: alpha[%d] = %v outside [0,1]", i, p.Alpha[i])
		}
		if p.Workspace[i] < 0 {
			return fmt.Errorf("moldable: negative workspace[%d]", i)
		}
		if p.MaxWidth[i] < 0 {
			return fmt.Errorf("moldable: negative max width[%d]", i)
		}
	}
	return nil
}

// Time returns the processing time of task i on q processors.
func (p *Profile) Time(t *tree.Tree, i tree.NodeID, q int) float64 {
	if q <= 1 {
		return t.Time(i)
	}
	a := p.Alpha[i]
	return t.Time(i) * ((1 - a) + a/float64(q))
}

// ExtraMem returns the workspace needed by task i on q processors beyond
// its rigid MemNeeded.
func (p *Profile) ExtraMem(i tree.NodeID, q int) float64 {
	if q <= 1 {
		return 0
	}
	return float64(q-1) * p.Workspace[i]
}

// widthCap returns the effective processor cap of task i given p
// processors total.
func (p *Profile) widthCap(i tree.NodeID, procs int) int {
	cap_ := procs
	if p.MaxWidth[i] > 0 && int(p.MaxWidth[i]) < cap_ {
		cap_ = int(p.MaxWidth[i])
	}
	return cap_
}

// DefaultProfile derives a realistic profile from the tree itself: tasks
// with more work parallelise better (a large dense front scales almost
// linearly, a tiny one not at all), and the per-processor workspace is a
// tenth of the task's own data.
func DefaultProfile(t *tree.Tree) *Profile {
	n := t.Len()
	p := &Profile{
		Alpha:     make([]float64, n),
		Workspace: make([]float64, n),
		MaxWidth:  make([]int32, n),
	}
	// Median work sets the scale: alpha = w/(w+median) grows with work.
	works := make([]float64, n)
	for i := 0; i < n; i++ {
		works[i] = t.Time(tree.NodeID(i))
	}
	sorted := append([]float64(nil), works...)
	sort.Float64s(sorted)
	median := sorted[n/2]
	if median == 0 {
		median = 1
	}
	for i := 0; i < n; i++ {
		id := tree.NodeID(i)
		p.Alpha[i] = works[i] / (works[i] + median)
		p.Workspace[i] = 0.1 * (t.Exec(id) + t.Out(id))
		p.MaxWidth[i] = 0
	}
	return p
}

// RigidProfile returns a profile under which widening never helps: all
// tasks are sequential (alpha 0, width cap 1). Scheduling with it must
// reproduce the rigid model exactly.
func RigidProfile(t *tree.Tree) *Profile {
	n := t.Len()
	p := &Profile{
		Alpha:     make([]float64, n),
		Workspace: make([]float64, n),
		MaxWidth:  make([]int32, n),
	}
	for i := range p.MaxWidth {
		p.MaxWidth[i] = 1
	}
	return p
}

// MemBookingMoldable wraps the paper's MemBooking with a width policy:
// tasks are activated, booked and released exactly as in the rigid
// algorithm; leftover processors are then dealt round-robin to the
// released tasks (EO-priority first), each extra processor requiring its
// workspace to fit under the memory bound. Widths degrade gracefully to
// 1 under memory pressure, so Theorem 1's completion guarantee carries
// over unchanged.
//
// It is a core.Scheduler that is also sim.Wide, so the one simulator
// runs it: sim.Run(t, p, s, opts) with procs == p. There is no separate
// moldable engine — a scheduler that never widens (RigidProfile) is the
// rigid model, event for event.
type MemBookingMoldable struct {
	inner   *core.MemBooking
	t       *tree.Tree
	profile *Profile
	procs   int
	// width[i] is the processor count granted to task i by the Select
	// that started it.
	width []int32
	// extra[i] is the workspace reserved for a running task, to be
	// released when it finishes.
	extra map[tree.NodeID]float64
}

var _ sim.Wide = (*MemBookingMoldable)(nil)

// NewMemBookingMoldable builds the moldable scheduler.
func NewMemBookingMoldable(t *tree.Tree, m float64, ao, eo *order.Order, prof *Profile, procs int) (*MemBookingMoldable, error) {
	if prof == nil {
		prof = DefaultProfile(t)
	}
	if err := prof.Validate(t); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("moldable: need at least one processor, got %d", procs)
	}
	inner, err := core.NewMemBooking(t, m, ao, eo)
	if err != nil {
		return nil, err
	}
	return &MemBookingMoldable{
		inner:   inner,
		t:       t,
		profile: prof,
		procs:   procs,
		width:   make([]int32, t.Len()),
		extra:   make(map[tree.NodeID]float64),
	}, nil
}

// Name implements core.Scheduler.
func (s *MemBookingMoldable) Name() string { return "MemBookingMoldable" }

// Init implements core.Scheduler.
func (s *MemBookingMoldable) Init() error { return s.inner.Init() }

// BookedMemory implements core.Scheduler.
func (s *MemBookingMoldable) BookedMemory() float64 { return s.inner.BookedMemory() }

// OnFinish implements core.Scheduler: releases the finished tasks' workspaces
// before the rigid bookkeeping runs.
func (s *MemBookingMoldable) OnFinish(batch []tree.NodeID) {
	for _, j := range batch {
		if w, ok := s.extra[j]; ok {
			s.inner.ReleaseTransient(w)
			delete(s.extra, j)
		}
	}
	s.inner.OnFinish(batch)
}

// Select implements core.Scheduler: the rigid core picks which tasks
// start; leftover processors are then spread round-robin, workspace
// permitting.
func (s *MemBookingMoldable) Select(free int) []tree.NodeID {
	tasks := s.inner.Select(free)
	for _, id := range tasks {
		s.width[id] = 1
	}
	leftover := free - len(tasks)
	// Round-robin widening in EO-priority order (Select's order).
	for leftover > 0 {
		progressed := false
		for _, id := range tasks {
			if leftover == 0 {
				break
			}
			if int(s.width[id]) >= s.profile.widthCap(id, s.procs) {
				continue
			}
			if s.profile.Alpha[id] == 0 {
				continue // widening cannot help
			}
			if !s.inner.ReserveTransient(s.profile.Workspace[id]) {
				continue // workspace does not fit; keep the task narrow
			}
			s.width[id]++
			s.extra[id] += s.profile.Workspace[id]
			leftover--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return tasks
}

// Shape implements sim.Wide: the width Select granted task i, its
// Amdahl duration at that width, and the workspace it holds meanwhile.
func (s *MemBookingMoldable) Shape(i tree.NodeID) (procs int, time, workspace float64) {
	q := int(s.width[i])
	return q, s.profile.Time(s.t, i, q), s.profile.ExtraMem(i, q)
}
