package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// Property-based tests of the traversal orders.

// Property: every named topological order is a valid topological
// permutation, on arbitrary trees.
func TestQuickOrdersTopological(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randTree(rng, 1+rng.Intn(80), true)
		for _, name := range []string{NameMemPO, NamePerfPO, NameOptSeq, NameNatural, NameAvgMemPO} {
			o, _, err := ByName(tr, name)
			if err != nil || !IsTopological(tr, o.Seq) {
				t.Logf("seed %d order %s invalid", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: peak(OptSeq) ≤ peak(memPO) ≤ peak(naturalPO); the optimal
// traversal never loses to a postorder, and the optimised postorder
// never loses to the naive one.
func TestQuickPeakOrdering(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randTree(rng, 1+rng.Intn(80), true)
		_, opt := OptSeq(tr)
		_, po := MinMemPostOrder(tr)
		nat, err := PeakMemory(tr, tr.PostOrderNatural())
		if err != nil {
			return false
		}
		return opt <= po+1e-9 && po <= nat+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported peaks of memPO and OptSeq equal the measured
// sequential peak of the order they return.
func TestQuickReportedPeaksConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randTree(rng, 1+rng.Intn(60), true)
		o1, p1 := MinMemPostOrder(tr)
		m1, err := PeakMemory(tr, o1.Seq)
		if err != nil || !almostEq(m1, p1) {
			return false
		}
		o2, p2 := OptSeq(tr)
		m2, err := PeakMemory(tr, o2.Seq)
		return err == nil && almostEq(m2, p2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequential peak is at least the largest single-task need
// and at most the total data volume.
func TestQuickPeakSanity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randTree(rng, 1+rng.Intn(60), true)
		_, p := MinMemPostOrder(tr)
		maxNeed := 0.0
		total := 0.0
		need := tr.MemNeededAll()
		for i := 0; i < tr.Len(); i++ {
			id := tree.NodeID(i)
			if m := need[i]; m > maxNeed {
				maxNeed = m
			}
			total += tr.Exec(id) + tr.Out(id)
		}
		return p >= maxNeed-1e-9 && p <= total+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+a+b)
}
