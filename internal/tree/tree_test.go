package tree

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// chain returns a chain of n nodes: 0 <- 1 <- ... (0 is the root).
func chain(n int) *Tree {
	p := make([]NodeID, n)
	p[0] = None
	for i := 1; i < n; i++ {
		p[i] = NodeID(i - 1)
	}
	return MustNew(p, nil, nil, nil)
}

// star returns a root with n-1 leaf children.
func star(n int) *Tree {
	p := make([]NodeID, n)
	p[0] = None
	for i := 1; i < n; i++ {
		p[i] = 0
	}
	return MustNew(p, nil, nil, nil)
}

// randomTree returns a uniformly-attached random tree with attributes.
func randomTree(rng *rand.Rand, n int) *Tree {
	p := make([]NodeID, n)
	exec := make([]float64, n)
	out := make([]float64, n)
	tm := make([]float64, n)
	p[0] = None
	for i := 1; i < n; i++ {
		p[i] = NodeID(rng.Intn(i))
	}
	for i := 0; i < n; i++ {
		exec[i] = float64(rng.Intn(10))
		out[i] = float64(1 + rng.Intn(10))
		tm[i] = float64(1 + rng.Intn(5))
	}
	return MustNew(p, exec, out, tm)
}

func TestNewRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name   string
		parent []NodeID
	}{
		{"empty", nil},
		{"no root", []NodeID{1, 0}},
		{"two roots", []NodeID{None, None}},
		{"self parent", []NodeID{None, 1}},
		{"out of range", []NodeID{None, 7}},
		{"cycle", []NodeID{None, 2, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.parent, nil, nil, nil); err == nil {
				t.Fatalf("New(%v) succeeded, want error", c.parent)
			}
		})
	}
}

func TestNewRejectsBadAttrLen(t *testing.T) {
	if _, err := New([]NodeID{None, 0}, []float64{1}, nil, nil); err == nil {
		t.Fatal("want attribute-length error")
	}
}

func TestChildrenAndDegrees(t *testing.T) {
	// root 0 with children 1,2; 2 has child 3.
	tr := MustNew([]NodeID{None, 0, 0, 2}, nil, nil, nil)
	if got := tr.Children(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("Children(0) = %v", got)
	}
	if got := tr.Children(2); !reflect.DeepEqual(got, []NodeID{3}) {
		t.Errorf("Children(2) = %v", got)
	}
	if tr.Degree(0) != 2 || tr.Degree(1) != 0 {
		t.Errorf("degrees wrong: %d %d", tr.Degree(0), tr.Degree(1))
	}
	if !tr.IsLeaf(1) || tr.IsLeaf(2) {
		t.Error("leaf classification wrong")
	}
	if tr.Root() != 0 {
		t.Errorf("Root = %d", tr.Root())
	}
}

func TestMemNeeded(t *testing.T) {
	// node 0 (root) children 1,2. f = [5, 3, 4], n = [2, 0, 1].
	tr := MustNew([]NodeID{None, 0, 0},
		[]float64{2, 0, 1}, []float64{5, 3, 4}, nil)
	all := tr.MemNeededAll()
	if all[0] != 3+4+2+5 {
		t.Errorf("MemNeeded(root) = %v, want 14", all[0])
	}
	if all[1] != 0+3 {
		t.Errorf("MemNeeded(leaf1) = %v, want 3", all[1])
	}
	for i := range all {
		id := NodeID(i)
		want := tr.Exec(id) + tr.Out(id)
		for _, c := range tr.Children(id) {
			want += tr.Out(c)
		}
		if all[i] != want {
			t.Errorf("MemNeededAll[%d] = %v, want %v", i, all[i], want)
		}
	}
}

func TestHeightDepthSubtreeSizes(t *testing.T) {
	tr := chain(5)
	if h := tr.Height(); h != 5 {
		t.Errorf("chain height = %d, want 5", h)
	}
	d := tr.Depths()
	if d[4] != 4 || d[0] != 0 {
		t.Errorf("depths = %v", d)
	}
	st := star(10)
	if h := st.Height(); h != 2 {
		t.Errorf("star height = %d, want 2", h)
	}
	if st.MaxDegree() != 9 {
		t.Errorf("star max degree = %d", st.MaxDegree())
	}
}

func TestPostOrderNaturalIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tr := randomTree(rng, 1+rng.Intn(80))
		ord := tr.PostOrderNatural()
		if len(ord) != tr.Len() {
			t.Fatalf("order length %d != %d", len(ord), tr.Len())
		}
		pos := make([]int, tr.Len())
		for i, v := range ord {
			pos[v] = i
		}
		for i := 0; i < tr.Len(); i++ {
			if p := tr.Parent(NodeID(i)); p != None && pos[i] > pos[p] {
				t.Fatalf("node %d after its parent %d", i, p)
			}
		}
	}
}

func TestTopDownVisitsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomTree(rng, 60)
	td := tr.TopDown()
	seen := make(map[NodeID]bool)
	for _, v := range td {
		if p := tr.Parent(v); p != None && !seen[p] {
			t.Fatalf("node %d before its parent", v)
		}
		seen[v] = true
	}
	if len(seen) != tr.Len() {
		t.Fatalf("visited %d of %d", len(seen), tr.Len())
	}
}

func TestBottomLevelsAndCriticalPath(t *testing.T) {
	// chain of 4 with times 1,2,3,4: bottom level of deepest = 10.
	tr := MustNew([]NodeID{None, 0, 1, 2}, nil, nil, []float64{1, 2, 3, 4})
	bl := tr.BottomLevels()
	if bl[3] != 10 || bl[0] != 1 {
		t.Errorf("bottom levels = %v", bl)
	}
	if cp := tr.CriticalPath(); cp != 10 {
		t.Errorf("critical path = %v, want 10", cp)
	}
}

// TestCriticalPathMatchesBottomLevels checks the critical path the
// build walk keeps against the largest BottomLevels entry, bit for bit,
// on random trees whose IDs are shuffled so parents are not numbered
// before their children, with fractional times so that any other
// summation order would show; and again on a WithTimes realisation of
// each, which must retake the path under its own times.
func TestCriticalPathMatchesBottomLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	maxLevel := func(tr *Tree) float64 {
		m := 0.0
		for _, b := range tr.BottomLevels() {
			m = max(m, b)
		}
		return m
	}
	times := func(n int) []float64 {
		tm := make([]float64, n)
		for i := range tm {
			tm[i] = rng.ExpFloat64() * 3.7
		}
		return tm
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		perm := rng.Perm(n) // node i of the attach-order tree is perm[i]
		parent := make([]NodeID, n)
		parent[perm[0]] = None
		for i := 1; i < n; i++ {
			parent[perm[i]] = NodeID(perm[rng.Intn(i)])
		}
		tr := MustNew(parent, nil, nil, times(n))
		if got, want := tr.CriticalPath(), maxLevel(tr); got != want {
			t.Fatalf("trial %d (%d nodes): CriticalPath %v, max bottom level %v", trial, n, got, want)
		}
		rt, err := tr.WithTimes(times(n))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rt.CriticalPath(), maxLevel(rt); got != want {
			t.Fatalf("trial %d (%d nodes): WithTimes CriticalPath %v, max bottom level %v", trial, n, got, want)
		}
	}
}

func TestSubtreeWork(t *testing.T) {
	tr := MustNew([]NodeID{None, 0, 0}, nil, nil, []float64{1, 2, 3})
	w := tr.SubtreeWork()
	if w[0] != 6 || w[1] != 2 || w[2] != 3 {
		t.Errorf("subtree work = %v", w)
	}
	if tr.TotalWork() != 6 {
		t.Errorf("total work = %v", tr.TotalWork())
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		tr := randomTree(rng, 1+rng.Intn(50))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip length %d != %d", back.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			id := NodeID(i)
			if back.Parent(id) != tr.Parent(id) || back.Exec(id) != tr.Exec(id) ||
				back.Out(id) != tr.Out(id) || back.Time(id) != tr.Time(id) {
				t.Fatalf("node %d differs after round trip", i)
			}
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing node": "0 -1 0 1 1\n2 0 0 1 1\n",
		"dup id":       "0 -1 0 1 1\n0 -1 0 1 1\n",
		"bad fields":   "0 -1 0 1\n",
		"bad float":    "0 -1 x 1 1\n",
		"empty":        "# nothing\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	tr := MustNew([]NodeID{None, 0}, nil, []float64{1, 2}, nil)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "digraph") || !strings.Contains(s, "n1 -> n0") {
		t.Errorf("DOT output missing structure:\n%s", s)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(4)
	r := b.AddRoot(1, 2, 3)
	c1 := b.Add(r, 0, 1, 9)
	b.Add(c1, 0, 1, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.Root() != r || tr.Time(c1) != 9 {
		t.Errorf("builder tree wrong: len=%d root=%d t=%v", tr.Len(), tr.Root(), tr.Time(c1))
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add before AddRoot should panic")
		}
	}()
	b := NewBuilder(1)
	b.Add(0, 0, 0, 0)
}

func TestComputeStats(t *testing.T) {
	tr := MustNew([]NodeID{None, 0, 0, 1},
		[]float64{1, 0, 0, 0}, []float64{4, 2, 3, 1}, []float64{1, 1, 1, 1})
	s := tr.ComputeStats()
	if s.Nodes != 4 || s.Leaves != 2 || s.Height != 3 || s.MaxDegree != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalWork != 4 {
		t.Errorf("stats totals = %+v", s)
	}
	// MemNeeded(root) = 2+3+1+4 = 10 is the max.
	if s.MaxNeed != 10 {
		t.Errorf("MaxNeed = %v, want 10", s.MaxNeed)
	}
}

func TestValidate(t *testing.T) {
	tr := chain(3)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	bad := MustNew([]NodeID{None, 0}, nil, nil, nil)
	bad.out[1] = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative attribute accepted")
	}
}

func TestWithTimes(t *testing.T) {
	tr := MustNew([]NodeID{None, 0, 0}, []float64{1, 0, 0}, []float64{4, 2, 3}, []float64{5, 6, 7})
	pt, err := tr.WithTimes([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		id := NodeID(i)
		if pt.Time(id) != float64(i+1) {
			t.Fatalf("time %d = %v", i, pt.Time(id))
		}
		if tr.Time(id) != float64(i+5) {
			t.Fatalf("WithTimes mutated the receiver at %d", i)
		}
		if pt.Parent(id) != tr.Parent(id) || pt.Exec(id) != tr.Exec(id) || pt.Out(id) != tr.Out(id) {
			t.Fatalf("WithTimes changed structure or sizes at %d", i)
		}
	}
	// The children index is shared, not rebuilt.
	if &pt.childList[0] != &tr.childList[0] {
		t.Fatal("WithTimes rebuilt the children index")
	}
	if _, err := tr.WithTimes([]float64{1, 2}); err == nil {
		t.Fatal("short times accepted")
	}
	if _, err := tr.WithTimes([]float64{1, 2, -1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if _, err := tr.WithTimes([]float64{1, 2, math.NaN()}); err == nil {
		t.Fatal("NaN time accepted")
	}
}
