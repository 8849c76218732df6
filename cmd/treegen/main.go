// Command treegen generates task trees in the .tree text format: either
// synthetic trees with the paper's §7.1 distribution, or assembly trees
// from the sparse-matrix substrate.
//
// Usage:
//
//	treegen -kind synthetic -n 10000 -seed 3 -o tree.tree
//	treegen -kind grid2d -side 64 -amalg 8 -o grid.tree
//	treegen -kind grid3d -side 12 -o grid3.tree
//	treegen -kind random -n 2000 -deg 4 -o rand.tree
//	treegen -kind band -n 5000 -bw 2 -o band.tree
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/tree"
	"repro/internal/workload"
)

func main() {
	var (
		kind  = flag.String("kind", "synthetic", "tree family: synthetic, grid2d, grid3d, random, band")
		n     = flag.Int("n", 1000, "node/matrix size (synthetic, random, band)")
		side  = flag.Int("side", 32, "grid side (grid2d, grid3d)")
		deg   = flag.Int("deg", 4, "average degree (random)")
		bw    = flag.Int("bw", 2, "half bandwidth (band)")
		amalg = flag.Int("amalg", 8, "supernode amalgamation parameter (assembly kinds)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("o", "", "output file (default stdout)")
		dot   = flag.Bool("dot", false, "emit Graphviz DOT instead of .tree")
		stats = flag.Bool("stats", false, "print tree statistics to stderr")
	)
	flag.Parse()

	t, err := generate(*kind, *n, *side, *deg, *bw, *amalg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treegen:", err)
		os.Exit(1)
	}
	if *stats {
		s := t.ComputeStats()
		_, peak := order.MinMemPostOrder(t)
		fmt.Fprintf(os.Stderr, "nodes=%d leaves=%d height=%d maxdeg=%d work=%.4g minpeak=%.4g\n",
			s.Nodes, s.Leaves, s.Height, s.MaxDegree, s.TotalWork, peak)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "treegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *dot {
		err = tree.WriteDOT(w, t)
	} else {
		err = tree.Write(w, t)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "treegen:", err)
		os.Exit(1)
	}
}

func generate(kind string, n, side, deg, bw, amalg int, seed int64) (*tree.Tree, error) {
	var (
		p    *sparse.Pattern
		perm []int32 // nil: natural order
	)
	switch kind {
	case "synthetic":
		return workload.Synthetic(workload.NewRNG(uint64(seed)), workload.SyntheticOptions{Nodes: n})
	case "grid2d":
		p, perm = sparse.GridND(2, side)
	case "grid2d-rcm":
		p, _ = sparse.Grid2D(side, side)
		perm = sparse.ReverseCuthillMcKee(p)
	case "grid3d":
		p, perm = sparse.GridND(3, side)
	case "random":
		p = sparse.RandomSym(n, deg, rand.New(rand.NewSource(seed)))
		perm = sparse.MinimumDegree(p)
	case "band":
		p = sparse.Band(n, bw)
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	res, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: amalg})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}
