package sparse

import (
	"fmt"

	"repro/internal/tree"
)

// AssemblyOptions control the construction of an assembly tree.
type AssemblyOptions struct {
	// Amalgamation merges a supernode into its parent whenever it has
	// fewer than this many columns (relaxed supernodes, as done by
	// multifrontal codes to enlarge fronts). 0 or 1 keeps fundamental
	// supernodes only.
	Amalgamation int
}

// flopScale converts factorization flops into the processing times t_i
// of the scheduling model: a 1 Gflop/s core.
const flopScale = 1e-9

// Front describes one node of an assembly tree: a dense frontal matrix of
// order M in which the first K variables are eliminated.
type Front struct {
	Cols  int32 // K: columns eliminated in this front
	Order int32 // M: order of the frontal matrix (K ≤ M)
}

// ContribSize returns the number of entries of the contribution block,
// the (M−K)×(M−K) symmetric Schur complement passed to the parent.
func (f Front) ContribSize() float64 {
	b := float64(f.Order - f.Cols)
	return b * (b + 1) / 2
}

// FactorSize returns the number of factor entries computed by the front
// (the trapezoid of K columns of length M, M−1, …).
func (f Front) FactorSize() float64 {
	k, m := float64(f.Cols), float64(f.Order)
	return k*m - k*(k-1)/2
}

// Flops returns the floating-point operations of the partial dense
// Cholesky factorization of the front: Σ_{i=0}^{K-1} (M−i)².
func (f Front) Flops() float64 {
	k, m := float64(f.Cols), float64(f.Order)
	// Σ (m-i)^2 for i = 0..k-1 = k·m² − m·k(k−1) + (k−1)k(2k−1)/6
	return k*m*m - m*k*(k-1) + (k-1)*k*(2*k-1)/6
}

// AssemblyResult bundles the assembly tree with the fronts and the
// factor statistics behind it.
type AssemblyResult struct {
	Tree        *tree.Tree
	Fronts      []Front // one per tree node; virtual root (if any) has zero size
	NNZL        int64   // nonzeros of the Cholesky factor
	VirtualRoot bool    // true when a zero-cost root joins a forest
}

// AssemblyTree builds the assembly tree of the Cholesky factorization of
// pattern p under the fill-reducing permutation perm (new→old; nil for
// natural order): permute, compute the elimination tree, postorder it,
// detect fundamental supernodes, amalgamate small ones, and emit one task
// per front with
//
//	f_i = contribution-block entries (output passed to the parent),
//	n_i = factor entries (freed when the front completes — the factors
//	      are written out, as in an out-of-core multifrontal solver),
//	t_i = factorization flops × flopScale.
func AssemblyTree(p *Pattern, perm []int32, opt *AssemblyOptions) (*AssemblyResult, error) {
	if opt == nil {
		opt = &AssemblyOptions{}
	}
	if perm == nil {
		perm = NaturalOrder(p.N())
	}
	pp, err := p.Permute(perm)
	if err != nil {
		return nil, err
	}
	// Postorder the elimination tree and re-permute so column labels are
	// postordered (required by supernode detection).
	parent := EliminationTree(pp)
	post := PostOrderETree(parent)
	perm2 := make([]int32, len(post))
	for k, old := range post {
		perm2[k] = perm[old]
	}
	pp, err = p.Permute(perm2)
	if err != nil {
		return nil, err
	}
	parent = EliminationTree(pp)
	cc := ColCounts(pp, parent)

	sn := fundamentalSupernodes(parent, cc)
	sn.amalgamate(opt.Amalgamation)
	fronts, parents, virtual := sn.compact()
	exec := make([]float64, len(fronts))
	out := make([]float64, len(fronts))
	tm := make([]float64, len(fronts))
	for i, f := range fronts {
		exec[i] = f.FactorSize()
		out[i] = f.ContribSize()
		tm[i] = f.Flops() * flopScale
	}
	tr, err := tree.New(parents, exec, out, tm)
	if err != nil {
		return nil, fmt.Errorf("sparse: assembly tree construction: %w", err)
	}
	return &AssemblyResult{Tree: tr, Fronts: fronts, NNZL: FactorNNZ(cc), VirtualRoot: virtual}, nil
}

// supernodes partitions the postordered columns into fronts. Supernode
// IDs are topological, children first, because the columns are
// postordered.
type supernodes struct {
	cols   []int32 // columns eliminated in each supernode
	front  []int32 // front order M
	parent []int32 // parent supernode, -1 at a root
	into   []int32 // the supernode it was amalgamated into, -1 if none
}

// fundamentalSupernodes groups the columns of a postordered elimination
// tree (parent, with column counts cc): column j joins column j-1's
// supernode iff j is the parent of j-1, j-1 is its only child, and the
// column structures nest exactly.
func fundamentalSupernodes(parent, cc []int32) *supernodes {
	n := len(parent)
	nchild := make([]int32, n)
	for j := 0; j < n; j++ {
		if parent[j] != -1 {
			nchild[parent[j]]++
		}
	}
	snOf := make([]int32, n)
	var firstCol []int32
	for j := 0; j < n; j++ {
		if j > 0 && parent[j-1] == int32(j) && nchild[j] == 1 && cc[j] == cc[j-1]-1 {
			snOf[j] = snOf[j-1]
			continue
		}
		snOf[j] = int32(len(firstCol))
		firstCol = append(firstCol, int32(j))
	}
	s := len(firstCol)
	sn := &supernodes{cols: make([]int32, s), front: make([]int32, s), parent: make([]int32, s), into: make([]int32, s)}
	for k := 0; k < s; k++ {
		last := int32(n - 1)
		if k+1 < s {
			last = firstCol[k+1] - 1
		}
		sn.cols[k] = last - firstCol[k] + 1
		sn.front[k] = cc[firstCol[k]] + sn.cols[k] - 1
		if pj := parent[last]; pj == -1 {
			sn.parent[k] = -1
		} else {
			sn.parent[k] = snOf[pj]
		}
		sn.into[k] = -1
	}
	return sn
}

// find returns the surviving supernode k was amalgamated into (k itself
// if it survives), halving the path on the way.
func (sn *supernodes) find(k int32) int32 {
	into := sn.into
	for into[k] != -1 {
		if into[into[k]] != -1 {
			into[k] = into[into[k]]
		}
		k = into[k]
	}
	return k
}

// amalgamate merges every non-root supernode of fewer than minCols
// columns into its parent (relaxed amalgamation with union-find
// contraction, children first); minCols ≤ 1 merges nothing.
func (sn *supernodes) amalgamate(minCols int) {
	if minCols <= 1 {
		return
	}
	for k := int32(0); k < int32(len(sn.cols)); k++ {
		if sn.parent[k] == -1 || int(sn.cols[k]) >= minCols {
			continue
		}
		pk := sn.find(sn.parent[k])
		// Approximate merged front: the child's columns join the
		// parent's front.
		m := sn.front[pk] + sn.cols[k]
		if sn.front[k] > m {
			m = sn.front[k]
		}
		sn.front[pk] = m
		sn.cols[pk] += sn.cols[k]
		sn.into[k] = pk
	}
}

// compact numbers the surviving supernodes into a task tree: one front
// and one parent per task, joined under a zero-cost virtual root when
// they form a forest (virtual reports it).
func (sn *supernodes) compact() (fronts []Front, parents []tree.NodeID, virtual bool) {
	s := int32(len(sn.cols))
	idOf := make([]int32, s)
	for k := range idOf {
		idOf[k] = -1
	}
	for k := int32(0); k < s; k++ {
		if sn.into[k] != -1 {
			continue
		}
		idOf[k] = int32(len(fronts))
		fronts = append(fronts, Front{Cols: sn.cols[k], Order: sn.front[k]})
		parents = append(parents, tree.None) // fixed below
	}
	roots := 0
	for k := int32(0); k < s; k++ {
		if sn.into[k] != -1 {
			continue
		}
		if sn.parent[k] == -1 {
			roots++
			continue
		}
		parents[idOf[k]] = tree.NodeID(idOf[sn.find(sn.parent[k])])
	}
	if roots != 1 {
		// Join the forest under a zero-cost virtual root.
		virtual = true
		rootID := tree.NodeID(len(fronts))
		fronts = append(fronts, Front{})
		for i := range parents {
			if parents[i] == tree.None {
				parents[i] = rootID
			}
		}
		parents = append(parents, tree.None)
	}
	return fronts, parents, virtual
}
