// Package dataset builds the benchmark instances of Section VI. The paper
// uses 291 University of Florida matrices ordered with MeTiS and amd, then
// amalgamated with 1, 2, 4 and 16 relaxations per node; this package
// substitutes a deterministic generator suite (grid Laplacians, banded and
// random symmetric patterns) ordered with the from-scratch minimum-degree
// and nested-dissection codes — see DESIGN.md for why the substitution
// preserves the experimental behaviour. All generation is deterministic.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// Scale selects the suite size.
type Scale int

const (
	// Small is a seconds-fast suite for unit tests.
	Small Scale = iota
	// Medium is the default suite for benchmarks: a few minutes end to end.
	Medium
	// Full is the complete suite for regenerating the paper's figures.
	Full
)

// RelaxLevels are the amalgamation parameters of Section VI-B.
var RelaxLevels = []int{1, 2, 4, 16}

// Instance is one assembly tree with its provenance.
type Instance struct {
	// Name is "matrix/ordering/rN".
	Name string
	// MatrixName and N describe the source pattern.
	MatrixName string
	N          int
	// Ordering is "md" or "nd".
	Ordering string
	// Relax is the amalgamation level.
	Relax int
	// Tree is the weighted assembly tree.
	Tree *tree.Tree
}

// matrixSpec is a lazily generated source pattern.
type matrixSpec struct {
	name string
	gen  func() (*sparse.Matrix, error)
}

func matrixSuite(scale Scale) []matrixSpec {
	grid2 := func(k int) matrixSpec {
		return matrixSpec{fmt.Sprintf("grid2d-%d", k), func() (*sparse.Matrix, error) { return sparse.Grid2D(k, k) }}
	}
	grid3 := func(k int) matrixSpec {
		return matrixSpec{fmt.Sprintf("grid3d-%d", k), func() (*sparse.Matrix, error) { return sparse.Grid3D(k, k, k) }}
	}
	rnd := func(n int, deg float64, seed int64) matrixSpec {
		return matrixSpec{fmt.Sprintf("rand-%d-d%.1f", n, deg), func() (*sparse.Matrix, error) {
			m, err := sparse.RandomSymmetric(rand.New(rand.NewSource(seed)), n, deg)
			if err != nil {
				return nil, err
			}
			return m.Symmetrize(), nil
		}}
	}
	band := func(n, hb int) matrixSpec {
		return matrixSpec{fmt.Sprintf("band-%d-b%d", n, hb), func() (*sparse.Matrix, error) { return sparse.BandMatrix(n, hb) }}
	}
	sf := func(n, epn int, seed int64) matrixSpec {
		return matrixSpec{fmt.Sprintf("scalefree-%d-e%d", n, epn), func() (*sparse.Matrix, error) {
			return sparse.ScaleFree(rand.New(rand.NewSource(seed)), n, epn)
		}}
	}
	switch scale {
	case Small:
		return []matrixSpec{grid2(8), grid3(4), rnd(80, 2.5, 101)}
	case Medium:
		return []matrixSpec{
			grid2(16), grid2(24), grid2(32),
			grid3(6), grid3(8),
			rnd(400, 2.5, 101), rnd(800, 3, 102),
			band(600, 4),
		}
	default: // Full
		return []matrixSpec{
			grid2(20), grid2(28), grid2(36), grid2(44), grid2(52), grid2(64),
			grid2(80), grid2(96), grid2(112),
			grid3(6), grid3(8), grid3(10), grid3(12), grid3(14), grid3(16),
			rnd(500, 2.5, 101), rnd(1000, 2.5, 102), rnd(1500, 3, 103),
			rnd(2500, 3, 104), rnd(4000, 2.5, 105),
			band(1000, 5), band(2000, 8), band(3000, 16), band(5000, 24),
			sf(1000, 2, 201), sf(2000, 2, 202), sf(3000, 3, 203), sf(5000, 2, 204),
		}
	}
}

// AssemblySuite generates the assembly-tree instances: every matrix of the
// scale's suite, ordered with minimum degree and nested dissection, then
// amalgamated at every relax level.
func AssemblySuite(scale Scale) ([]Instance, error) {
	var out []Instance
	for _, spec := range matrixSuite(scale) {
		m, err := spec.gen()
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", spec.name, err)
		}
		orderings := []struct {
			name string
			perm func() ([]int, error)
		}{
			{"md", func() ([]int, error) { return ordering.MinimumDegree(m) }},
			{"nd", func() ([]int, error) {
				return ordering.NestedDissection(m, ordering.NestedDissectionOptions{LeafSize: 32})
			}},
		}
		for _, ord := range orderings {
			perm, err := ord.perm()
			if err != nil {
				return nil, fmt.Errorf("dataset: %s/%s: %w", spec.name, ord.name, err)
			}
			pm, err := m.Permute(perm)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s/%s: %w", spec.name, ord.name, err)
			}
			// Elimination tree and column counts once per ordering; only
			// the amalgamation depends on relax.
			parent, err := symbolic.EliminationTree(pm)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s/%s: %w", spec.name, ord.name, err)
			}
			counts, err := symbolic.ColumnCounts(pm, parent)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s/%s: %w", spec.name, ord.name, err)
			}
			for _, relax := range RelaxLevels {
				res, err := symbolic.Amalgamate(parent, counts, symbolic.AssemblyOptions{Relax: relax})
				if err != nil {
					return nil, fmt.Errorf("dataset: %s/%s/r%d: %w", spec.name, ord.name, relax, err)
				}
				out = append(out, Instance{
					Name:       fmt.Sprintf("%s/%s/r%d", spec.name, ord.name, relax),
					MatrixName: spec.name,
					N:          m.N(),
					Ordering:   ord.name,
					Relax:      relax,
					Tree:       res.Tree,
				})
			}
		}
	}
	return out, nil
}

// RandomWeightSuite implements Section VI-E: it keeps the shape of every
// assembly tree but draws execution files uniformly from [1, N/500] and
// input files from [1, N], where N is the node count, producing
// seedsPerTree randomized copies of each instance.
func RandomWeightSuite(base []Instance, seedsPerTree int) []Instance {
	var out []Instance
	for bi, inst := range base {
		for s := 0; s < seedsPerTree; s++ {
			rng := rand.New(rand.NewSource(int64(bi)*1000 + int64(s) + 1))
			out = append(out, Instance{
				Name:       fmt.Sprintf("%s/w%d", inst.Name, s),
				MatrixName: inst.MatrixName,
				N:          inst.N,
				Ordering:   inst.Ordering,
				Relax:      inst.Relax,
				Tree:       tree.RandomizeWeights(inst.Tree, rng),
			})
		}
	}
	return out
}
