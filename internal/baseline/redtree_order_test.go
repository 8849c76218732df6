package baseline_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The reduction-tree scheduler derives its activation and execution
// orders from orders on the original tree by slotting each fictitious
// leaf right before its parent; the derived activation order must be a
// valid topological order of the transformed tree, for any input order.
func TestRedTreeDerivedOrdersTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for trial := 0; trial < 40; trial++ {
		tr := randTree(rng, 1+rng.Intn(60))
		for _, name := range []string{order.NameMemPO, order.NamePerfPO, order.NameNatural} {
			ao, _, err := order.ByName(tr, name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := baseline.NewMemBookingRedTree(tr, 1e12, ao, ao)
			if err != nil {
				t.Fatal(err)
			}
			// Execute: any violation of the derived order's topology
			// would deadlock or crash the engine.
			if _, err := sim.Run(s.Tree(), 2, s, nil); err != nil {
				t.Fatalf("ao=%s n=%d: %v", name, tr.Len(), err)
			}
		}
	}
}

// Reduction-tree transform: fictitious outputs absorb both the execution
// data and the output excess, never less.
func TestRedTreeFictitiousSizes(t *testing.T) {
	// Node with big output, small inputs: excess = n + f − Σf = 2+9−3 = 8.
	tr := tree.MustNew([]tree.NodeID{tree.None, 0},
		[]float64{2, 0}, []float64{9, 3}, nil)
	red := baseline.ToReductionTree(tr)
	if red.Tree.Len() != 3 {
		t.Fatalf("expected exactly one fictitious node, tree has %d nodes", red.Tree.Len())
	}
	fic := tree.NodeID(2)
	if got := red.Tree.Out(fic); got != 8 {
		t.Fatalf("fictitious output %v, want 8", got)
	}
	if !baseline.IsReductionTree(red.Tree) {
		t.Fatal("transform result is not a reduction tree")
	}
	// MemNeeded of the original node: before 3+2+9 = 14, after 3+8+9 = 20
	// (the inflation the paper's §3.2 describes).
	if got := red.Tree.MemNeededAll()[0]; got != 20 {
		t.Fatalf("transformed MemNeeded %v, want 20", got)
	}
}

// A node whose execution data dominates: fc = n_i.
func TestRedTreeFictitiousExecOnly(t *testing.T) {
	tr := tree.MustNew([]tree.NodeID{tree.None, 0},
		[]float64{5, 0}, []float64{2, 10}, nil)
	red := baseline.ToReductionTree(tr)
	fic := tree.NodeID(2)
	if got := red.Tree.Out(fic); got != 5 {
		t.Fatalf("fictitious output %v, want n_i = 5", got)
	}
	// MemNeeded preserved exactly in this case: 10+5+2 = 17.
	if got := red.Tree.MemNeededAll()[0]; got != 17 {
		t.Fatalf("transformed MemNeeded %v, want 17", got)
	}
}
