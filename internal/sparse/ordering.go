package sparse

import (
	"sort"
)

// MinimumDegree computes a fill-reducing permutation (new→old) with the
// classical minimum-degree heuristic on the elimination graph. This is
// the textbook algorithm (no supervariables, no element absorption), kept
// simple on purpose; it is intended for the small and medium matrices of
// the corpus. Memory grows with fill, so very large dense-ish inputs
// should use NestedDissection instead.
func MinimumDegree(p *Pattern) []int32 {
	n := p.N()
	// Full symmetric adjacency as sorted slices, updated by elimination.
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		lower := p.Adj(i)
		adj[i] = append(adj[i], lower...)
	}
	for i := 0; i < n; i++ {
		for _, j := range p.Adj(i) {
			adj[j] = append(adj[j], int32(i))
		}
	}
	for i := range adj {
		sort.SliceStable(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
	}

	eliminated := make([]bool, n)
	perm := make([]int32, 0, n)
	deg := make([]int, n)
	// Lazy min-heap of (degree, vertex): stale entries are skipped when
	// popped, so degree updates are just fresh pushes.
	h := &degHeap{}
	for i := range adj {
		deg[i] = len(adj[i])
		h.push(deg[i], int32(i))
	}
	for len(perm) < n {
		// Pick the uneliminated vertex of minimum current degree.
		var v int32
		for {
			d, u := h.pop()
			if !eliminated[u] && deg[u] == d {
				v = u
				break
			}
		}
		best := int(v)
		eliminated[best] = true
		perm = append(perm, v)
		// Form the clique of v's uneliminated neighbours.
		nbrs := adj[best][:0:0]
		for _, u := range adj[best] {
			if !eliminated[u] {
				nbrs = append(nbrs, u)
			}
		}
		for _, u := range nbrs {
			merged := mergeNeighbors(adj[u], nbrs, u, v, eliminated)
			adj[u] = merged
			deg[u] = len(merged)
			h.push(deg[u], u)
		}
		adj[best] = nil
	}
	return perm
}

// degHeap is a plain binary min-heap of (degree, vertex) pairs with lazy
// invalidation.
type degHeap struct {
	d []int
	v []int32
}

func (h *degHeap) push(d int, v int32) {
	h.d = append(h.d, d)
	h.v = append(h.v, v)
	i := len(h.d) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.d[i] >= h.d[p] {
			break
		}
		h.d[i], h.d[p] = h.d[p], h.d[i]
		h.v[i], h.v[p] = h.v[p], h.v[i]
		i = p
	}
}

func (h *degHeap) pop() (int, int32) {
	d0, v0 := h.d[0], h.v[0]
	last := len(h.d) - 1
	h.d[0], h.v[0] = h.d[last], h.v[last]
	h.d, h.v = h.d[:last], h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.d) && h.d[l] < h.d[small] {
			small = l
		}
		if r < len(h.d) && h.d[r] < h.d[small] {
			small = r
		}
		if small == i {
			break
		}
		h.d[i], h.d[small] = h.d[small], h.d[i]
		h.v[i], h.v[small] = h.v[small], h.v[i]
		i = small
	}
	return d0, v0
}

// mergeNeighbors returns the sorted union of cur (minus v and eliminated
// vertices) with clique (minus u itself).
func mergeNeighbors(cur, clique []int32, u, v int32, eliminated []bool) []int32 {
	out := make([]int32, 0, len(cur)+len(clique))
	i, j := 0, 0
	for i < len(cur) || j < len(clique) {
		var x int32
		switch {
		case j >= len(clique):
			x = cur[i]
			i++
		case i >= len(cur):
			x = clique[j]
			j++
		case cur[i] < clique[j]:
			x = cur[i]
			i++
		case cur[i] > clique[j]:
			x = clique[j]
			j++
		default:
			x = cur[i]
			i++
			j++
		}
		if x == u || x == v || eliminated[x] {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// GridND returns the pattern of the n×n 5-point grid (dim 2) or the
// n×n×n 7-point grid (dim 3) with its nested-dissection permutation,
// regions of at most 8 (2-D) or 12 (3-D) vertices ordered naturally —
// the one grid ordering every grid workload uses.
func GridND(dim, n int) (*Pattern, []int32) {
	if dim == 2 {
		p, coords := Grid2D(n, n)
		return p, NestedDissection(coords, 8)
	}
	p, coords := Grid3D(n, n, n)
	return p, NestedDissection(coords, 12)
}

// NestedDissection orders a grid graph (given vertex coordinates) by
// recursive geometric bisection: each region is split across its longest
// axis, the two halves are ordered first and the separator plane last.
// Regions at or below leafSize vertices are ordered naturally. Returns a
// new→old permutation. This matches the classical fill-reducing ordering
// for regular grids and produces the wide, shallow assembly trees typical
// of discretised PDEs.
func NestedDissection(coords [][3]int32, leafSize int) []int32 {
	n := len(coords)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	perm := make([]int32, 0, n)
	var rec func(set []int32)
	rec = func(set []int32) {
		if len(set) <= leafSize {
			perm = append(perm, set...)
			return
		}
		// Find the longest axis of the bounding box.
		var lo, hi [3]int32
		for d := 0; d < 3; d++ {
			lo[d], hi[d] = coords[set[0]][d], coords[set[0]][d]
		}
		for _, v := range set {
			for d := 0; d < 3; d++ {
				if coords[v][d] < lo[d] {
					lo[d] = coords[v][d]
				}
				if coords[v][d] > hi[d] {
					hi[d] = coords[v][d]
				}
			}
		}
		axis, span := 0, int32(-1)
		for d := 0; d < 3; d++ {
			if hi[d]-lo[d] > span {
				axis, span = d, hi[d]-lo[d]
			}
		}
		if span == 0 {
			perm = append(perm, set...)
			return
		}
		mid := (lo[axis] + hi[axis]) / 2
		var left, right, sep []int32
		for _, v := range set {
			switch {
			case coords[v][axis] < mid:
				left = append(left, v)
			case coords[v][axis] > mid:
				right = append(right, v)
			default:
				sep = append(sep, v)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			// Degenerate split: fall back to natural order.
			perm = append(perm, set...)
			return
		}
		rec(left)
		rec(right)
		perm = append(perm, sep...)
	}
	rec(ids)
	return perm
}

// NaturalOrder returns the identity permutation.
func NaturalOrder(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}
