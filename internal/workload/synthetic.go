package workload

import (
	"fmt"

	"repro/internal/tree"
)

// SyntheticOptions parameterise the §7.1 synthetic generator.
type SyntheticOptions struct {
	// Nodes is the target tree size.
	Nodes int
}

// paperDegreeWeights is Pr(δ = 1..5) from §7.1.
var paperDegreeWeights = []float64{0.58, 0.17, 0.08, 0.08, 0.08}

// Synthetic generates a random task tree following §7.1 of the paper:
// node degrees drawn from {1..5} with the published probabilities, edge
// weights (output sizes f_i) from an exponential distribution of rate 1
// multiplied by 100 and truncated to [10, 10000], execution data
// n_i = 0.1·f_i, and processing time t_i proportional to f_i.
func Synthetic(rng *RNG, opt SyntheticOptions) (*tree.Tree, error) {
	n := opt.Nodes
	if n <= 0 {
		return nil, fmt.Errorf("workload: synthetic tree needs a positive size, got %d", n)
	}
	parent := make([]tree.NodeID, n)
	parent[0] = tree.None
	// Grow from the root: each step expands a uniformly random open node
	// (the paper does not specify the construction order, see DESIGN.md).
	frontier := []tree.NodeID{0}
	next := 1
	// Every expansion adds at least one node, so the frontier never
	// empties before the budget is spent.
	for next < n {
		idx := rng.Intn(len(frontier))
		v := frontier[idx]
		frontier[idx] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		deg := rng.Pick(paperDegreeWeights) + 1
		if deg > n-next {
			deg = n - next
		}
		for k := 0; k < deg; k++ {
			parent[next] = v
			frontier = append(frontier, tree.NodeID(next))
			next++
		}
	}
	return paperTree(rng, parent)
}

// MustSynthetic is Synthetic but panics on error.
func MustSynthetic(rng *RNG, opt SyntheticOptions) *tree.Tree {
	t, err := Synthetic(rng, opt)
	if err != nil {
		panic(err)
	}
	return t
}

// paperTree draws the §7.1 size distribution (exponential edge weights
// ×100 truncated to [10, 10000], n_i = 0.1·f_i, t_i ∝ f_i) over an
// already-wired parent array and builds the tree — shared by the random
// generator and the extreme shapes.
func paperTree(rng *RNG, parent []tree.NodeID) (*tree.Tree, error) {
	n := len(parent)
	out := make([]float64, n)
	exec := make([]float64, n)
	tm := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 100 * rng.Exp(1)
		if w < 10 {
			w = 10
		}
		if w > 10000 {
			w = 10000
		}
		out[i] = w
		exec[i] = 0.1 * w
		tm[i] = w
	}
	return tree.New(parent, exec, out, tm)
}

// Chain generates a linear chain of n tasks (node 0 is the root, node
// n−1 the single leaf) with the paper's size distribution: the
// maximum-depth stress shape for per-event scheduler cost (the ALAP
// dispatch walk climbs ancestors).
func Chain(rng *RNG, n int) (*tree.Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: chain needs a positive size, got %d", n)
	}
	parent := make([]tree.NodeID, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = tree.NodeID(i - 1)
	}
	return paperTree(rng, parent)
}

// Star generates a root with n−1 leaf children with the paper's size
// distribution: the maximum-fanout stress shape for candidate
// activation (the root's BookedBySubtree aggregates every child).
func Star(rng *RNG, n int) (*tree.Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: star needs a positive size, got %d", n)
	}
	parent := make([]tree.NodeID, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = 0
	}
	return paperTree(rng, parent)
}
