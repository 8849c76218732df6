package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Tree shapes the layout tests draw from.
const (
	shapeRandom = iota
	shapeChain
	shapeStar
	shapeSingle
	shapes
)

// shapedTree returns an n-node tree of the given shape whose IDs are a
// random relabelling, so no numbering is already in any traversal's
// order. Attributes span several magnitudes, so sums taken in another
// order round differently.
func shapedTree(rng *rand.Rand, shape, n int) *Tree {
	if shape == shapeSingle {
		n = 1
	}
	label := rng.Perm(n)
	parent := make([]NodeID, n)
	exec, out, tm := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var p NodeID = None
		switch {
		case i == 0:
		case shape == shapeChain:
			p = NodeID(label[i-1])
		case shape == shapeStar:
			p = NodeID(label[0])
		default:
			p = NodeID(label[rng.Intn(i)])
		}
		v := label[i]
		parent[v] = p
		exec[v] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		out[v] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		tm[v] = 1 + rng.Float64()
	}
	return MustNew(parent, exec, out, tm)
}

// randomTopo returns a uniformly drawn ready-list order of t: children
// before parents, any ready node next.
func randomTopo(rng *rand.Rand, t *Tree) []NodeID {
	n := t.Len()
	left := make([]int, n)
	var ready []NodeID
	for i := 0; i < n; i++ {
		if left[i] = t.Degree(NodeID(i)); left[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	seq := make([]NodeID, 0, n)
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seq = append(seq, v)
		if p := t.Parent(v); p != None {
			if left[p]--; left[p] == 0 {
				ready = append(ready, p)
			}
		}
	}
	return seq
}

// layoutDiff returns what breaks the map between t and lay, its layout
// by seq, or "" when every property holds.
func layoutDiff(t *Tree, seq []NodeID, lay *Tree) string {
	n := t.Len()
	if lay.Len() != n || !lay.LaidOut() {
		return "size or laid-out mark"
	}
	pos := make([]NodeID, n)
	for k, v := range seq {
		pos[v] = NodeID(k)
	}
	if lay.Root() != pos[t.Root()] || lay.CriticalPath() != t.CriticalPath() {
		return "root or critical path"
	}
	want, got := t.MemNeededAll(), lay.MemNeededAll()
	for k, v := range seq {
		id := NodeID(k)
		if lay.Exec(id) != t.Exec(v) || lay.Out(id) != t.Out(v) || lay.Time(id) != t.Time(v) {
			return "attributes"
		}
		if p := t.Parent(v); (p == None) != (lay.Parent(id) == None) || p != None && lay.Parent(id) != pos[p] {
			return "parent"
		}
		kids := slices.Clone(t.Children(v))
		for x, c := range kids {
			kids[x] = pos[c]
		}
		if !slices.Equal(lay.Children(id), kids) {
			return "children"
		}
		if math.Float64bits(got[k]) != math.Float64bits(want[v]) {
			return "MemNeeded"
		}
	}
	return ""
}

// sameStorage reports whether a and b hold the same tree, array by
// array: a layout into recycled storage must leave nothing of what the
// storage held before.
func sameStorage(a, b *Tree) bool {
	return a.root == b.root && a.cp == b.cp && a.laid == b.laid &&
		slices.Equal(a.parent, b.parent) && slices.Equal(a.exec, b.exec) &&
		slices.Equal(a.out, b.out) && slices.Equal(a.time, b.time) &&
		slices.Equal(a.childStart, b.childStart) && slices.Equal(a.childList, b.childList)
}

// checkLayOut lays a shape-drawn tree out by a random topological
// order, into fresh storage and into storage that last held a tree of
// prevN nodes, and checks the map and that both layouts are equal. A
// New tree of prevN nodes passed as storage is not recycled — its
// arrays belong to whoever holds it — and is left as it was. It also
// checks that a sequence that is no topological order is refused, and
// that on a New tree the child-list pass MemNeededInto takes on a
// laid-out one sums as its parent pass does.
func checkLayOut(t *testing.T, seed int64, shape, n, prevN int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := shapedTree(rng, shape, n)
	seq := randomTopo(rng, tr)
	fresh, err := tr.LayOut(seq, nil)
	if err != nil {
		t.Fatalf("seed %d shape %d n %d: %v", seed, shape, n, err)
	}
	if msg := layoutDiff(tr, seq, fresh); msg != "" {
		t.Fatalf("seed %d shape %d n %d: %s do not map across", seed, shape, n, msg)
	}
	byParent := tr.MemNeededAll()
	for i, m := range memNeededByChildLists(tr, make([]float64, tr.Len())) {
		if math.Float64bits(m) != math.Float64bits(byParent[i]) {
			t.Fatalf("seed %d shape %d n %d: node %d: the child-list pass sums to %v, the parent pass to %v", seed, shape, n, i, m, byParent[i])
		}
	}
	prev := shapedTree(rng, shapeRandom, prevN)
	before := *prev
	before.parent, before.childList = slices.Clone(prev.parent), slices.Clone(prev.childList)
	before.exec, before.out, before.time = slices.Clone(prev.exec), slices.Clone(prev.out), slices.Clone(prev.time)
	before.childStart = slices.Clone(prev.childStart)
	if got, err := tr.LayOut(seq, prev); err != nil || got == prev || !sameStorage(got, fresh) || !sameStorage(prev, &before) {
		t.Fatalf("seed %d: layout into a New tree of %d nodes: %v (reused %v)", seed, prevN, err, got == prev)
	}
	used, err := prev.LayOut(randomTopo(rng, prev), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := tr.LayOut(seq, used); err != nil || again != used {
		t.Fatalf("seed %d: layout into used storage: %v (same storage %v)", seed, err, again == used)
	}
	if !sameStorage(used, fresh) {
		t.Fatalf("seed %d shape %d n %d: layout into storage that held %d nodes differs from a fresh one", seed, shape, n, prevN)
	}
	if tr.Len() < 2 {
		return
	}
	bad := slices.Clone(seq)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0] // the root first
	if _, err := tr.LayOut(bad, nil); err == nil {
		t.Fatalf("seed %d: a sequence with the root first was laid out", seed)
	}
	bad = slices.Clone(seq)
	bad[0] = bad[1]
	if _, err := tr.LayOut(bad, used); err == nil {
		t.Fatalf("seed %d: a sequence with a node twice was laid out", seed)
	}
	if _, err := tr.LayOut(seq[1:], nil); err == nil {
		t.Fatalf("seed %d: a short sequence was laid out", seed)
	}
}

// TestLayOut runs checkLayOut over every shape, from a tree smaller than
// the storage's last one to one larger.
func TestLayOut(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for shape := 0; shape < shapes; shape++ {
			checkLayOut(t, seed, shape, int(seed)*37, 1+int(seed*seed*13)%700)
		}
	}
}

// FuzzPermute is TestLayOut under search: any shape, size, topological
// order and previous occupant of the storage.
func FuzzPermute(f *testing.F) {
	f.Add(int64(1), uint8(shapeRandom), uint16(100), uint16(10))
	f.Add(int64(2), uint8(shapeStar), uint16(64), uint16(65))
	f.Add(int64(3), uint8(shapeChain), uint16(2), uint16(1000))
	f.Add(int64(4), uint8(shapeSingle), uint16(1), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n, prevN uint16) {
		checkLayOut(t, seed, int(shape)%shapes, 1+int(n)%3000, 1+int(prevN)%3000)
	})
}

// TestMemNeededIntoAllocatesNothing pins the laid-out branch too.
func TestMemNeededIntoAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := shapedTree(rng, shapeRandom, 500)
	lay, err := tr.LayOut(randomTopo(rng, tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]float64, 500)
	for _, x := range []*Tree{tr, lay} {
		if a := testing.AllocsPerRun(10, func() { x.MemNeededInto(m) }); a != 0 {
			t.Errorf("MemNeededInto (laid out %v) allocates %.0f times", x.LaidOut(), a)
		}
	}
}

// memNeededByChildLists is MemNeededInto with the child-list pass on
// any tree.
func memNeededByChildLists(t *Tree, m []float64) []float64 {
	for i := range m {
		m[i] = t.exec[i] + t.out[i]
	}
	t.addChildOutputs(m)
	return m
}

// BenchmarkMemNeededInto times MemNeededInto on New trees at 10k and 1M
// nodes ("parent", the pass it takes there) against the same with the
// child-list pass ("childlist"), and MemNeededInto on the tree laid out
// by a random topological order ("laidout", the child-list pass).
func BenchmarkMemNeededInto(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		for shape, name := range []string{"random", "chain", "star"} {
			rng := rand.New(rand.NewSource(1))
			tr := shapedTree(rng, shape, n)
			lay, err := tr.LayOut(randomTopo(rng, tr), nil)
			if err != nil {
				b.Fatal(err)
			}
			m := make([]float64, n)
			for _, pass := range []struct {
				name string
				f    func()
			}{
				{"parent", func() { tr.MemNeededInto(m) }},
				{"childlist", func() { memNeededByChildLists(tr, m) }},
				{"laidout", func() { lay.MemNeededInto(m) }},
			} {
				b.Run(fmt.Sprintf("%s/n%d/%s", name, n, pass.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pass.f()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
				})
			}
		}
	}
}
