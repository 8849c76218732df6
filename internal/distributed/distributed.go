// Package distributed implements the paper's second "future work"
// direction (§8): executing a task tree on a platform made of several
// domains (clusters of cores), each with its own private memory. Tasks
// are mapped to domains with the classical proportional mapping (in the
// spirit of the paper's reference [2], Agullo et al., "Robust
// memory-aware mappings for parallel multifrontal factorizations");
// an output crossing a domain boundary must be admitted into the
// destination's memory before it moves, and occupies that memory from
// the moment of admission. The interconnect itself is instantaneous: a
// transfer arrives at its admission instant, so what the model studies
// is the memory a crossing edge holds, not its time on the wire.
//
// The scheduling policy is an activation scheme per domain: each domain
// is a baseline.Activator over its local tasks, activating them in AO
// order by booking their execution and output data against the domain's
// memory, and cross-domain inputs are booked through it at transfer
// admission. Unlike the shared-memory MemBooking of
// the core package, no termination theorem is known for this setting —
// that is precisely the open problem §8 points at — so a run can stall,
// and returns the simulator's *core.ErrDeadlock when it does; the tests
// map out where that starts. The domains are one core.Scheduler that
// sim.Run drives over all their processors.
package distributed

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// Domain is one cluster of cores with private memory.
type Domain struct {
	Procs int
	Mem   float64
}

// Platform is a set of domains.
type Platform struct {
	Domains []Domain
}

// Validate checks the platform.
func (p *Platform) Validate() error {
	if len(p.Domains) == 0 {
		return fmt.Errorf("distributed: platform needs at least one domain")
	}
	for i, d := range p.Domains {
		if d.Procs <= 0 {
			return fmt.Errorf("distributed: domain %d has no processors", i)
		}
		if d.Mem <= 0 {
			return fmt.Errorf("distributed: domain %d has no memory", i)
		}
	}
	return nil
}

// Uniform returns a platform of nd identical domains.
func Uniform(nd, procs int, mem float64) *Platform {
	ds := make([]Domain, nd)
	for i := range ds {
		ds[i] = Domain{Procs: procs, Mem: mem}
	}
	return &Platform{Domains: ds}
}

// ProportionalMapping assigns every task to one of nd domains by the
// classical proportional-mapping rule: the root owns all domains; at
// each node the domain set is split among the children subtrees
// proportionally to their total work; a subtree that ends up with a
// single domain is mapped entirely onto it. Nodes on split paths stay on
// the first domain of their set. The result is a subtree-coherent
// mapping that balances work and keeps most edges domain-local.
func ProportionalMapping(t *tree.Tree, nd int) []int32 {
	if nd < 1 {
		nd = 1
	}
	work := t.SubtreeWork()
	domainOf := make([]int32, t.Len())
	type job struct {
		node tree.NodeID
		set  []int32
	}
	all := make([]int32, nd)
	for i := range all {
		all[i] = int32(i)
	}
	stack := []job{{t.Root(), all}}
	var assignAll func(v tree.NodeID, d int32)
	assignAll = func(v tree.NodeID, d int32) {
		// Iterative subtree paint.
		st := []tree.NodeID{v}
		for len(st) > 0 {
			x := st[len(st)-1]
			st = st[:len(st)-1]
			domainOf[x] = d
			st = append(st, t.Children(x)...)
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(j.set) == 1 {
			assignAll(j.node, j.set[0])
			continue
		}
		domainOf[j.node] = j.set[0]
		kids := append([]tree.NodeID(nil), t.Children(j.node)...)
		if len(kids) == 0 {
			continue
		}
		sort.SliceStable(kids, func(a, b int) bool { return work[kids[a]] > work[kids[b]] })
		total := 0.0
		for _, c := range kids {
			total += work[c]
		}
		if total == 0 {
			for _, c := range kids {
				stack = append(stack, job{c, j.set[:1]})
			}
			continue
		}
		// Largest-remainder split of |set| domains over the children.
		shares := make([]int, len(kids))
		remainders := make([]float64, len(kids))
		used := 0
		for i, c := range kids {
			exact := float64(len(j.set)) * work[c] / total
			shares[i] = int(exact)
			remainders[i] = exact - float64(shares[i])
			used += shares[i]
		}
		idx := make([]int, len(kids))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return remainders[idx[a]] > remainders[idx[b]] })
		for k := 0; used < len(j.set) && k < len(idx); k++ {
			shares[idx[k]]++
			used++
		}
		pos := 0
		for i, c := range kids {
			s := shares[i]
			if s == 0 {
				// Small subtree: ride along with the least-indexed
				// domain of the parent's set.
				stack = append(stack, job{c, j.set[:1]})
				continue
			}
			if pos+s > len(j.set) {
				s = len(j.set) - pos
			}
			if s <= 0 {
				stack = append(stack, job{c, j.set[:1]})
				continue
			}
			stack = append(stack, job{c, j.set[pos : pos+s]})
			pos += s
		}
	}
	return domainOf
}

// MappingStats summarises a mapping: per-domain work and the volume of
// data crossing domain boundaries.
type MappingStats struct {
	Work        []float64
	CrossEdges  int
	CrossVolume float64
}

// StatsOf computes MappingStats.
func StatsOf(t *tree.Tree, domainOf []int32, nd int) MappingStats {
	s := MappingStats{Work: make([]float64, nd)}
	for i := 0; i < t.Len(); i++ {
		id := tree.NodeID(i)
		s.Work[domainOf[i]] += t.Time(id)
		if p := t.Parent(id); p != tree.None && domainOf[p] != domainOf[i] {
			s.CrossEdges++
			s.CrossVolume += t.Out(id)
		}
	}
	return s
}
