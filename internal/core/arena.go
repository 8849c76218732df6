package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/order"
	"repro/internal/tree"
)

// This file is the scheduler-state arena: the allocation recycling layer
// behind job-stream simulations. A MemBooking instance owns seven O(n)
// slices plus the execution heap; a stream of thousands of jobs that
// builds a fresh scheduler per admission allocates O(total jobs × n)
// state even though only O(max concurrent jobs) schedulers are ever live
// at once. Rebind repoints an existing instance at a new (tree, bound,
// orders) tuple reusing its state arrays, and MemBookingPool keeps
// retired instances in size-class buckets so a stream reuses state
// instead of reallocating it.

// Rebind repoints the scheduler at a new tree, memory bound and order
// pair, reusing its O(n) state arrays whenever their capacity covers the
// new tree (growing them — rounded up to the next power of two so pooled
// instances serve their whole size class — otherwise). The instance is
// left un-initialised exactly like a fresh NewMemBooking: the engine's
// next Init (or Restore) call rebuilds the run state in place.
func (s *MemBooking) Rebind(t *tree.Tree, m float64, ao, eo *order.Order) error {
	if !ao.TopologicalFor(t) {
		return fmt.Errorf("membooking: activation order %q is not topological", ao.Name)
	}
	if len(eo.Seq) != t.Len() {
		return fmt.Errorf("membooking: execution order %q covers %d of %d tasks", eo.Name, len(eo.Seq), t.Len())
	}
	if m < 0 || math.IsNaN(m) {
		return fmt.Errorf("membooking: invalid memory bound %v", m)
	}
	s.t, s.m, s.ao, s.eo = t, m, ao, eo
	if s.need == nil {
		return nil // fresh instance: Init allocates as usual
	}
	n := t.Len()
	if cap(s.need) < n {
		s.alloc(1 << sizeClass(n))
	} else {
		s.need = s.need[:n]
		s.booked = s.booked[:n]
		s.bbs = s.bbs[:n]
		s.childSum = s.childSum[:n]
		s.state = s.state[:n]
		s.chNotAct = s.chNotAct[:n]
		s.chNotFin = s.chNotFin[:n]
		t.MemNeededInto(s.need)
	}
	return nil
}

// sizeClass is ⌈log₂ n⌉: the pool bucket that serves an n-node tree,
// and the exponent of the capacity a pooled instance is built with.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// MemBookingPool recycles MemBooking instances across the jobs of a
// stream. Instances are kept in power-of-two size-class buckets keyed by
// the capacity of their state arrays: Get serves a request for an
// n-node tree from the bucket whose every instance is guaranteed to hold
// n nodes without growing, so a long stream's steady state reuses
// O(max concurrent jobs) scheduler allocations instead of O(total jobs).
// The zero value is ready to use. A pool is not safe for concurrent use;
// each simulation loop owns its own.
type MemBookingPool struct {
	buckets [33][]*MemBooking
}

// Get returns a scheduler for (t, m, ao, eo): a recycled instance
// rebound in place when the size class has one, otherwise a fresh one
// whose arrays have the class capacity 2^⌈log₂ n⌉ — not n, as a bare
// NewMemBooking would get — so Put files it in the bucket the next Get
// for the same tree looks in. The caller must Init (or Restore) it, as
// with a fresh instance.
func (p *MemBookingPool) Get(t *tree.Tree, m float64, ao, eo *order.Order) (*MemBooking, error) {
	b := sizeClass(t.Len()) // every pooled cap ≥ 2^b ≥ n
	if l := p.buckets[b]; len(l) > 0 {
		s := l[len(l)-1]
		p.buckets[b] = l[:len(l)-1]
		if err := s.Rebind(t, m, ao, eo); err != nil {
			return nil, err
		}
		return s, nil
	}
	s, err := NewMemBooking(t, m, ao, eo)
	if err != nil {
		return nil, err
	}
	s.alloc(1 << b)
	return s, nil
}

// Put retires a scheduler into its size-class bucket. The instance's
// references to its tree and orders are dropped, so a stream does not
// pin finished jobs' trees in memory; the next Get rebinds it. Instances
// that never allocated state (NewMemBooking without Init) are recycled
// all the same.
//
// After Put the caller must drop its reference: the next Get of the size
// class hands the instance to another job. The dropped tree reference is
// what enforces that at run time — Init, Restore and OnFinish on a
// retired instance dereference it and fault, and a second Put of an
// instance still in the pool panics here rather than letting two Gets
// share it.
func (p *MemBookingPool) Put(s *MemBooking) {
	if s == nil {
		return
	}
	if s.t == nil {
		panic("core: MemBookingPool.Put of a scheduler that is already in the pool")
	}
	var b int
	if c := cap(s.need); c > 0 {
		b = bits.Len(uint(c)) - 1 // floor(log2 cap): guarantee cap ≥ 2^b
	}
	s.t, s.ao, s.eo = nil, nil, nil
	p.buckets[b] = append(p.buckets[b], s)
}
