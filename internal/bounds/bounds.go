// Package bounds computes makespan lower bounds for memory-constrained
// tree scheduling: the classical bound (work over p, critical path) and
// the paper's new memory-aware bound (Theorem 3), the first of its kind.
package bounds

import (
	"fmt"

	"repro/internal/tree"
)

// Classical returns the standard makespan lower bound for p processors:
// max(total work / p, critical path length). The critical path is kept
// on the tree, so this costs one pass summing the task times.
func Classical(t *tree.Tree, p int) float64 {
	w := t.TotalWork() / float64(p)
	if cp := t.CriticalPath(); cp > w {
		return cp
	}
	return w
}

// Memory returns the memory-aware lower bound of Theorem 3 for a memory
// bound m:
//
//	Cmax ≥ (1/M) Σ_i MemNeeded(i) × t_i
//
// Every task occupies MemNeeded(i) memory for t_i time, so the total
// memory-time product of any schedule is at least Σ MemNeeded_i·t_i, while
// a schedule of makespan Cmax can use at most Cmax×M. The bound does not
// depend on the number of processors.
func Memory(t *tree.Tree, m float64) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("bounds: memory bound must be positive, got %v", m)
	}
	need := t.MemNeededAll()
	sum := 0.0
	for i := 0; i < t.Len(); i++ {
		sum += need[i] * t.Time(tree.NodeID(i))
	}
	return sum / m, nil
}

// Best returns the tighter of the two bounds.
func Best(t *tree.Tree, p int, m float64) (float64, error) {
	mem, err := Memory(t, m)
	if err != nil {
		return 0, err
	}
	if c := Classical(t, p); c > mem {
		return c, nil
	}
	return mem, nil
}
