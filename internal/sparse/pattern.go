// Package sparse is the substrate that produces the paper's first data
// set: assembly trees of sparse Cholesky (multifrontal) factorizations.
// The paper uses 608 elimination trees built from the University of
// Florida collection; this package builds the same mathematical objects
// from synthetic symmetric patterns instead — regular grids, random
// graphs and band matrices — via the standard pipeline:
//
//	pattern → fill-reducing ordering → elimination tree →
//	column counts → supernode amalgamation → assembly tree
//
// Front sizes, contribution-block sizes and factorization flop counts of
// the resulting fronts become the f_i, n_i and t_i attributes of the
// scheduling model.
package sparse

import (
	"fmt"
	"math/rand"
	"sort"
)

// Pattern is the nonzero structure of a symmetric matrix. Only the
// strictly-lower adjacency is stored: Adj(i) lists the neighbours j < i.
// The diagonal is implicit (always nonzero).
type Pattern struct {
	n     int
	start []int32
	adj   []int32 // neighbours j < i for row i, sorted increasing
}

// N returns the matrix dimension.
func (p *Pattern) N() int { return p.n }

// Adj returns the strictly-lower neighbours of row i (sorted, read-only).
func (p *Pattern) Adj(i int) []int32 {
	return p.adj[p.start[i]:p.start[i+1]]
}

// NewPattern builds a Pattern from an edge list over vertices 0..n-1.
// Self loops are ignored; duplicates are merged; edges may be given in
// any orientation.
func NewPattern(n int, edges [][2]int32) (*Pattern, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: dimension must be positive, got %d", n)
	}
	deg := make([]int32, n+1)
	norm := make([][2]int32, 0, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			continue
		}
		if a < b {
			a, b = b, a
		}
		if b < 0 || int(a) >= n {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range", e[0], e[1])
		}
		norm = append(norm, [2]int32{a, b}) // a > b: row a, col b
	}
	sort.SliceStable(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	// Deduplicate.
	uniq := norm[:0]
	for i, e := range norm {
		if i > 0 && e == norm[i-1] {
			continue
		}
		uniq = append(uniq, e)
		deg[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, len(uniq))
	for i, e := range uniq {
		adj[i] = e[1] // already grouped by row and sorted by column
	}
	return &Pattern{n: n, start: deg, adj: adj}, nil
}

// Permute returns the pattern of P A Pᵀ where perm[k] = original index of
// the k-th row/column of the permuted matrix (perm is the new→old map).
func (p *Pattern) Permute(perm []int32) (*Pattern, error) {
	if len(perm) != p.n {
		return nil, fmt.Errorf("sparse: permutation length %d != %d", len(perm), p.n)
	}
	inv := make([]int32, p.n)
	seen := make([]bool, p.n)
	for new, old := range perm {
		if old < 0 || int(old) >= p.n || seen[old] {
			return nil, fmt.Errorf("sparse: invalid permutation")
		}
		seen[old] = true
		inv[old] = int32(new)
	}
	edges := make([][2]int32, 0, len(p.adj))
	for i := 0; i < p.n; i++ {
		for _, j := range p.Adj(i) {
			edges = append(edges, [2]int32{inv[i], inv[j]})
		}
	}
	return NewPattern(p.n, edges)
}

// Grid2D returns the 5-point stencil pattern on an nx × ny grid together
// with the coordinates of each vertex (used by nested dissection).
func Grid2D(nx, ny int) (*Pattern, [][3]int32) {
	id := func(x, y int) int32 { return int32(y*nx + x) }
	var edges [][2]int32
	coords := make([][3]int32, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			coords[id(x, y)] = [3]int32{int32(x), int32(y), 0}
			if x+1 < nx {
				edges = append(edges, [2]int32{id(x, y), id(x+1, y)})
			}
			if y+1 < ny {
				edges = append(edges, [2]int32{id(x, y), id(x, y+1)})
			}
		}
	}
	p, err := NewPattern(nx*ny, edges)
	if err != nil {
		panic(err) // inputs correct by construction
	}
	return p, coords
}

// Grid3D returns the 7-point stencil pattern on an nx × ny × nz grid with
// vertex coordinates.
func Grid3D(nx, ny, nz int) (*Pattern, [][3]int32) {
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	var edges [][2]int32
	coords := make([][3]int32, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				coords[id(x, y, z)] = [3]int32{int32(x), int32(y), int32(z)}
				if x+1 < nx {
					edges = append(edges, [2]int32{id(x, y, z), id(x+1, y, z)})
				}
				if y+1 < ny {
					edges = append(edges, [2]int32{id(x, y, z), id(x, y+1, z)})
				}
				if z+1 < nz {
					edges = append(edges, [2]int32{id(x, y, z), id(x, y, z+1)})
				}
			}
		}
	}
	p, err := NewPattern(nx*ny*nz, edges)
	if err != nil {
		panic(err)
	}
	return p, coords
}

// RandomSym returns a connected random symmetric pattern with on average
// avgDeg off-diagonal neighbours per row: a random spanning chain plus
// uniformly random edges.
func RandomSym(n, avgDeg int, rng *rand.Rand) *Pattern {
	var edges [][2]int32
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int32{int32(perm[i-1]), int32(perm[i])})
	}
	extra := n * (avgDeg - 2) / 2
	for k := 0; k < extra; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int32{int32(a), int32(b)})
		}
	}
	p, err := NewPattern(n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Band returns a band matrix pattern of half-bandwidth bw.
func Band(n, bw int) *Pattern {
	var edges [][2]int32
	for i := 0; i < n; i++ {
		for j := i - bw; j < i; j++ {
			if j >= 0 {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	p, err := NewPattern(n, edges)
	if err != nil {
		panic(err)
	}
	return p
}
