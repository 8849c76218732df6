package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
	"repro/internal/tree"
)

// Instance is one tree of a corpus together with its provenance.
type Instance struct {
	Name string
	Tree *tree.Tree
}

// SyntheticCorpus generates count trees of each of the given sizes with
// the paper's distribution (§7.1 uses 50 trees of 1 000, 10 000 and
// 100 000 nodes).
func SyntheticCorpus(seed uint64, count int, sizes []int) []Instance {
	var out []Instance
	for _, n := range sizes {
		for k := 0; k < count; k++ {
			rng := NewRNG(seed ^ uint64(n*1000003) ^ uint64(k*7919))
			t := MustSynthetic(rng, SyntheticOptions{Nodes: n})
			out = append(out, Instance{Name: fmt.Sprintf("synth-n%d-%d", n, k), Tree: t})
		}
	}
	return out
}

// AssemblyCorpusOptions scales the assembly-tree corpus.
type AssemblyCorpusOptions struct {
	// Grids2D lists the square 2D grid sides to factor.
	Grids2D []int
	// RCMGrids lists square 2D grid sides to factor under a reverse
	// Cuthill-McKee ordering: band-like factors with deep, thin assembly
	// trees (the no-speedup regime of the paper's Figure 7).
	RCMGrids []int
	// Grids3D lists the cubic 3D grid sides to factor.
	Grids3D []int
	// RandomN lists the sizes of random symmetric matrices (minimum
	// degree ordered).
	RandomN []int
	// Bands lists (n, bandwidth) pairs of band matrices.
	Bands [][2]int
	// Amalgamations lists the relaxed-supernode parameters applied to
	// every matrix (each value yields one tree per matrix).
	Amalgamations []int
}

// DefaultAssemblyCorpus is a laptop-sized stand-in for the paper's 608
// UFL assembly trees: a few dozen trees spanning three decades of sizes,
// heights from a dozen to thousands, and degrees from 2 to hundreds.
func DefaultAssemblyCorpus() AssemblyCorpusOptions {
	return AssemblyCorpusOptions{
		Grids2D:       []int{24, 40, 64, 96, 128, 192, 256},
		RCMGrids:      []int{32, 64},
		Grids3D:       []int{8, 12, 16},
		RandomN:       []int{800, 2000, 4000},
		Bands:         [][2]int{{3000, 4}, {8000, 2}, {20000, 1}},
		Amalgamations: []int{1, 8},
	}
}

// AssemblyCorpus builds the corpus described by opt. Random matrices use
// minimum degree; grids use nested dissection; bands use natural order.
func AssemblyCorpus(seed uint64, opt AssemblyCorpusOptions) ([]Instance, error) {
	var out []Instance
	add := func(name string, p *sparse.Pattern, perm []int32, amalg int) error {
		res, err := sparse.AssemblyTree(p, perm, &sparse.AssemblyOptions{Amalgamation: amalg})
		if err != nil {
			return fmt.Errorf("workload: %s: %w", name, err)
		}
		out = append(out, Instance{Name: fmt.Sprintf("%s-a%d", name, amalg), Tree: res.Tree})
		return nil
	}
	for _, side := range opt.Grids2D {
		p, perm := sparse.GridND(2, side)
		for _, a := range opt.Amalgamations {
			if err := add(fmt.Sprintf("grid2d-%d", side), p, perm, a); err != nil {
				return nil, err
			}
		}
	}
	for _, side := range opt.RCMGrids {
		p, _ := sparse.Grid2D(side, side)
		perm := sparse.ReverseCuthillMcKee(p)
		for _, a := range opt.Amalgamations {
			if err := add(fmt.Sprintf("grid2d-rcm-%d", side), p, perm, a); err != nil {
				return nil, err
			}
		}
	}
	for _, side := range opt.Grids3D {
		p, perm := sparse.GridND(3, side)
		for _, a := range opt.Amalgamations {
			if err := add(fmt.Sprintf("grid3d-%d", side), p, perm, a); err != nil {
				return nil, err
			}
		}
	}
	for k, n := range opt.RandomN {
		rng := rand.New(rand.NewSource(int64(seed) + int64(k*7717)))
		p := sparse.RandomSym(n, 4, rng)
		perm := sparse.MinimumDegree(p)
		for _, a := range opt.Amalgamations {
			if err := add(fmt.Sprintf("rand-%d", n), p, perm, a); err != nil {
				return nil, err
			}
		}
	}
	for _, nb := range opt.Bands {
		p := sparse.Band(nb[0], nb[1])
		for _, a := range opt.Amalgamations {
			if err := add(fmt.Sprintf("band-%d-%d", nb[0], nb[1]), p, nil, a); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
