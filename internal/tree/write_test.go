package tree_test

import (
	"bytes"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tree"
	"repro/internal/workload"
)

// edgeTree is an 11-node star whose attributes rotate through the
// float64 values a shortest-form formatter is most likely to get wrong.
func edgeTree(t testing.TB) *tree.Tree {
	t.Helper()
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1<<53 + 1, 1e21, 1e-7,
		0.1 + 0.2, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	n := len(vals)
	parent := make([]tree.NodeID, n)
	exec, out, tm := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range parent {
		exec[i], out[i], tm[i] = vals[i], vals[(i+1)%n], vals[(i+2)%n]
	}
	parent[0] = tree.None
	tr, err := tree.New(parent, exec, out, tm)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func grid2dTree(t testing.TB) *tree.Tree {
	t.Helper()
	p, perm := sparse.GridND(2, 30)
	res, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

func synthetic(n int) *tree.Tree {
	return workload.MustSynthetic(workload.NewRNG(1), workload.SyntheticOptions{Nodes: n})
}

// TestWriteGolden pins Write's bytes: one FNV-64a digest per tree,
// recorded once from the fmt-based writer and never regenerated, so a
// faster writer must emit exactly the text files already on disk hold.
func TestWriteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *tree.Tree
		want uint64
	}{
		{"synthetic-1", synthetic(1), 0x0afd9bbc91278326},
		{"synthetic-100", synthetic(100), 0xdd8e7aeeaf10e76c},
		{"synthetic-10k", synthetic(10000), 0x37cde8e1975b666e},
		{"grid2d-30", grid2dTree(t), 0x27a6f0c46ffdf5c8},
		{"edge-floats", edgeTree(t), 0x3a7553cce6e17d89},
	} {
		h := fnv.New64a()
		if err := tree.Write(h, tc.tree); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: Write digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestWriteAllocs pins Write to a constant number of blocks — its
// buffers, not a string or a boxed argument per node.
func TestWriteAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{100, 10000} {
		tr := synthetic(n)
		counts = append(counts, testing.AllocsPerRun(5, func() { tree.Write(io.Discard, tr) }))
	}
	if counts[0] != counts[1] || counts[1] > 4 {
		t.Fatalf("Write allocates %v blocks at 100 nodes and %v at 10k, want the same count, at most 4", counts[0], counts[1])
	}
}

func BenchmarkWrite(b *testing.B) {
	tr := synthetic(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		tree.Write(io.Discard, tr)
	}
}

func BenchmarkParseLimited(b *testing.B) {
	var buf bytes.Buffer
	if err := tree.Write(&buf, synthetic(10000)); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := tree.ParseLimited(text, 10000); err != nil {
			b.Fatal(err)
		}
	}
}
