package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// denseSymbolic computes the filled factor structure of a pattern by
// brute force (right-looking symbolic factorization on a dense boolean
// matrix). Returns the strictly-lower filled structure.
func denseSymbolic(p *Pattern) [][]bool {
	n := p.N()
	L := make([][]bool, n)
	for i := range L {
		L[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for _, j := range p.Adj(i) {
			L[i][j] = true
		}
	}
	for k := 0; k < n; k++ {
		var s []int
		for i := k + 1; i < n; i++ {
			if L[i][k] {
				s = append(s, i)
			}
		}
		for a := 0; a < len(s); a++ {
			for b := a + 1; b < len(s); b++ {
				L[s[b]][s[a]] = true
			}
		}
	}
	return L
}

func bruteETree(L [][]bool) []int32 {
	n := len(L)
	parent := make([]int32, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		for i := j + 1; i < n; i++ {
			if L[i][j] {
				parent[j] = int32(i)
				break
			}
		}
	}
	return parent
}

func bruteColCounts(L [][]bool) []int32 {
	n := len(L)
	cc := make([]int32, n)
	for j := 0; j < n; j++ {
		cc[j] = 1
		for i := j + 1; i < n; i++ {
			if L[i][j] {
				cc[j]++
			}
		}
	}
	return cc
}

func TestNewPatternDedupAndOrientation(t *testing.T) {
	p, err := NewPattern(3, [][2]int32{{0, 1}, {1, 0}, {2, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.adj) != 2 {
		t.Fatalf("nnz = %d, want 2", len(p.adj))
	}
	if got := p.Adj(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Adj(1) = %v", got)
	}
	if got := p.Adj(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Adj(2) = %v", got)
	}
	if _, err := NewPattern(0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewPattern(2, [][2]int32{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestEliminationTreeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		p := RandomSym(n, 3, rng)
		L := denseSymbolic(p)
		want := bruteETree(L)
		got := EliminationTree(p)
		for j := 0; j < n; j++ {
			if got[j] != want[j] {
				t.Fatalf("etree[%d] = %d, want %d (n=%d)", j, got[j], want[j], n)
			}
		}
	}
}

func TestColCountsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		p := RandomSym(n, 3, rng)
		L := denseSymbolic(p)
		want := bruteColCounts(L)
		got := ColCounts(p, EliminationTree(p))
		for j := 0; j < n; j++ {
			if got[j] != want[j] {
				t.Fatalf("cc[%d] = %d, want %d (n=%d)", j, got[j], want[j], n)
			}
		}
	}
}

func TestPostOrderETreeIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		p := RandomSym(n, 3, rng)
		parent := EliminationTree(p)
		post := PostOrderETree(parent)
		pos := make([]int, n)
		seen := make([]bool, n)
		for k, v := range post {
			if seen[v] {
				t.Fatal("duplicate in postorder")
			}
			seen[v] = true
			pos[v] = k
		}
		for j := 0; j < n; j++ {
			if parent[j] != -1 && pos[j] > pos[parent[j]] {
				t.Fatalf("column %d after its etree parent", j)
			}
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	p := RandomSym(20, 3, rng)
	perm := make([]int32, 20)
	for i, v := range rng.Perm(20) {
		perm[i] = int32(v)
	}
	pp, err := p.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.adj) != len(p.adj) {
		t.Fatalf("nnz changed: %d -> %d", len(p.adj), len(pp.adj))
	}
	// Permuting back with the inverse recovers the original adjacency.
	inv := make([]int32, 20)
	for new, old := range perm {
		inv[old] = int32(new)
	}
	back, err := pp.Permute(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b := p.Adj(i), back.Adj(i)
		if len(a) != len(b) {
			t.Fatalf("row %d changed", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("row %d changed", i)
			}
		}
	}
	if _, err := p.Permute(perm[:3]); err == nil {
		t.Fatal("short permutation accepted")
	}
}

func TestGridGenerators(t *testing.T) {
	p2, c2 := Grid2D(4, 3)
	if p2.N() != 12 || len(c2) != 12 {
		t.Fatalf("grid2d size %d", p2.N())
	}
	// 5-point stencil: edges = 3*(4-1) + 4*(3-1) = 9+8 = 17.
	if len(p2.adj) != 17 {
		t.Fatalf("grid2d nnz = %d, want 17", len(p2.adj))
	}
	p3, c3 := Grid3D(3, 3, 3)
	if p3.N() != 27 || len(c3) != 27 {
		t.Fatalf("grid3d size %d", p3.N())
	}
	// 7-point: 3 directions × 2×3×3 faces... edges = 3 * (2*3*3) = 54.
	if len(p3.adj) != 54 {
		t.Fatalf("grid3d nnz = %d, want 54", len(p3.adj))
	}
	b := Band(10, 2)
	if len(b.adj) != 2*10-3 {
		t.Fatalf("band nnz = %d, want 17", len(b.adj))
	}
}

func fillOf(p *Pattern, perm []int32) int64 {
	pp, err := p.Permute(perm)
	if err != nil {
		panic(err)
	}
	return FactorNNZ(ColCounts(pp, EliminationTree(pp)))
}

func TestMinimumDegreeReducesFill(t *testing.T) {
	p, _ := Grid2D(15, 15)
	natural := fillOf(p, NaturalOrder(p.N()))
	md := MinimumDegree(p)
	// Valid permutation.
	seen := make([]bool, p.N())
	for _, v := range md {
		if seen[v] {
			t.Fatal("minimum degree produced a non-permutation")
		}
		seen[v] = true
	}
	got := fillOf(p, md)
	if got >= natural {
		t.Fatalf("minimum degree fill %d not below natural %d", got, natural)
	}
}

func TestNestedDissectionReducesFill(t *testing.T) {
	p, coords := Grid2D(20, 20)
	natural := fillOf(p, NaturalOrder(p.N()))
	nd := NestedDissection(coords, 8)
	seen := make([]bool, p.N())
	for _, v := range nd {
		if seen[v] {
			t.Fatal("nested dissection produced a non-permutation")
		}
		seen[v] = true
	}
	got := fillOf(p, nd)
	if got >= natural {
		t.Fatalf("nested dissection fill %d not below natural %d", got, natural)
	}
}

func TestFrontFormulas(t *testing.T) {
	f := Front{Cols: 3, Order: 7}
	// Flops = 7² + 6² + 5² = 49+36+25 = 110.
	if got := f.Flops(); got != 110 {
		t.Fatalf("flops = %v, want 110", got)
	}
	// Contribution block: 4×4 triangle = 10 entries.
	if got := f.ContribSize(); got != 10 {
		t.Fatalf("contrib = %v, want 10", got)
	}
	// Factor: 7+6+5 = 18 entries.
	if got := f.FactorSize(); got != 18 {
		t.Fatalf("factor = %v, want 18", got)
	}
}

func TestAssemblyTreeBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		p := RandomSym(n, 4, rng)
		res, err := AssemblyTree(p, MinimumDegree(p), &AssemblyOptions{Amalgamation: 4})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Tree
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// All columns accounted for.
		totCols := int32(0)
		for _, f := range res.Fronts {
			totCols += f.Cols
			if f.Cols > f.Order {
				t.Fatalf("front with K=%d > M=%d", f.Cols, f.Order)
			}
		}
		if int(totCols) != n {
			t.Fatalf("fronts cover %d of %d columns", totCols, n)
		}
		// Leaves have no input; every non-virtual node has positive work.
		for i := 0; i < tr.Len(); i++ {
			id := tree.NodeID(i)
			if res.VirtualRoot && id == tr.Root() {
				continue
			}
			if tr.Time(id) <= 0 {
				t.Fatalf("front %d has no work", i)
			}
		}
	}
}

func TestAssemblyTreeAmalgamationShrinks(t *testing.T) {
	p, coords := Grid2D(20, 20)
	nd := NestedDissection(coords, 8)
	plain, err := AssemblyTree(p, nd, &AssemblyOptions{Amalgamation: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := AssemblyTree(p, nd, &AssemblyOptions{Amalgamation: 8})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Tree.Len() >= plain.Tree.Len() {
		t.Fatalf("amalgamation did not shrink the tree: %d -> %d",
			plain.Tree.Len(), merged.Tree.Len())
	}
}

func TestAssemblyTreeChainIsSingleSupernode(t *testing.T) {
	// A dense band of width 1 (a path graph) in natural order produces a
	// factor where each column has exactly one subdiagonal entry; the
	// fundamental supernode partition collapses the whole chain into few
	// supernodes with cc[j+1] = cc[j] - 1 failing only at the end.
	p := Band(10, 1)
	res, err := AssemblyTree(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path graph: every cc[j] = 2 except last = 1, so supernode breaks
	// happen at every column except the last pair; we mainly check the
	// construction is consistent and covers all columns.
	tot := int32(0)
	for _, f := range res.Fronts {
		tot += f.Cols
	}
	if tot != 10 {
		t.Fatalf("fronts cover %d of 10 columns", tot)
	}
	if res.NNZL != 19 { // 9 subdiagonal + 10 diagonal
		t.Fatalf("nnz(L) = %d, want 19", res.NNZL)
	}
}

func TestAssemblyTreeGridRealism(t *testing.T) {
	// A 2D grid under nested dissection must produce the classic shape:
	// a root front of size Θ(grid side) and total factor nonzeros well
	// above the matrix nonzeros.
	p, coords := Grid2D(24, 24)
	res, err := AssemblyTree(p, NestedDissection(coords, 8), &AssemblyOptions{Amalgamation: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NNZL < int64(2*len(p.adj)) {
		t.Fatalf("suspiciously little fill: nnz(L)=%d nnz(A)=%d", res.NNZL, len(p.adj))
	}
	stats := res.Tree.ComputeStats()
	if stats.Height < 4 {
		t.Fatalf("nested dissection tree too shallow: height %d", stats.Height)
	}
	if math.IsNaN(stats.TotalWork) || stats.TotalWork <= 0 {
		t.Fatalf("bad total work %v", stats.TotalWork)
	}
}
