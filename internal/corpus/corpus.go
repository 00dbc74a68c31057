// Package corpus is the matrix front door of the evaluation spine: the
// compiled-in manifests of sparse matrices (SuiteSparse download URLs with
// deterministic generator fallbacks per matrix family, so CI never touches
// the network, and Section VI's generator-only suites), and a streaming
// pipeline that turns each matrix into assembly-tree instances —
// symmetrize, order with {natural, RCM, AMD, nested dissection}, amalgamate
// at each relax level — ready to feed any schedule backend as a job
// stream. Per-matrix pipeline stages run concurrently; instances are
// delivered in deterministic manifest order.
package corpus

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/sparse"
)

// Family classifies a matrix by structure; the matrices experiment reports
// the winning ordering per family.
type Family string

// The manifests' matrix families: regular 2D/3D grid discretizations,
// power-law graphs (circuit/optimization-like irregularity), banded
// engineering matrices, and uniformly random sparse patterns.
const (
	FamilyGrid2D   Family = "grid2d"
	FamilyGrid3D   Family = "grid3d"
	FamilyPowerLaw Family = "powerlaw"
	FamilyBanded   Family = "banded"
	FamilyRandom   Family = "random"
)

// GenSpec is a deterministic generator fallback: the matrix produced when
// the real file is not mirrored locally.
type GenSpec struct {
	// Kind selects the generator: grid2d | grid3d | rmat | band | random |
	// scalefree.
	Kind string
	// N is the size: grid2d N×N, grid3d N×N×N, N rows for the other kinds.
	N int
	// Arg is the second parameter: edges per node for rmat and scalefree,
	// the half-bandwidth for band, and the average off-diagonal degree for
	// random, which may be fractional (2.5). Every kind but random refuses
	// a non-integral Arg.
	Arg float64
	// Seed drives the random generators; structured kinds ignore it.
	Seed int64
}

// Entry is one manifest matrix: a real downloadable file plus the
// deterministic stand-in used when the file is absent.
type Entry struct {
	// Name is the instance-name prefix and the expected local file name
	// (<Name>.mtx inside the corpus directory).
	Name string
	// Family classifies the matrix for the winner-per-family report.
	Family Family
	// URL is the SuiteSparse collection archive holding the real matrix;
	// empty for generator-only entries. The pipeline never fetches it —
	// mirroring the corpus is an operator step (see the runbook).
	URL string
	// Gen is the deterministic fallback.
	Gen GenSpec
}

// Generate builds the entry's fallback matrix.
func (e Entry) Generate() (*sparse.Matrix, error) {
	g := e.Gen
	if g.Kind == "random" {
		return sparse.RandomSymmetric(rand.New(rand.NewSource(g.Seed)), g.N, g.Arg)
	}
	arg := int(g.Arg)
	if float64(arg) != g.Arg {
		return nil, fmt.Errorf("corpus: %s: %s generator wants an integral Arg, got %v", e.Name, g.Kind, g.Arg)
	}
	switch g.Kind {
	case "grid2d":
		return sparse.Grid2D(g.N, g.N)
	case "grid3d":
		return sparse.Grid3D(g.N, g.N, g.N)
	case "rmat":
		return sparse.RMAT(rand.New(rand.NewSource(g.Seed)), g.N, arg)
	case "band":
		return sparse.BandMatrix(g.N, arg)
	case "scalefree":
		return sparse.ScaleFree(rand.New(rand.NewSource(g.Seed)), g.N, arg)
	default:
		return nil, fmt.Errorf("corpus: %s: unknown generator kind %q", e.Name, e.Gen.Kind)
	}
}

// Load returns the entry's matrix and its provenance: the MatrixMarket
// file <dir>/<Name>.mtx when present ("file"), the deterministic generator
// when it does not exist ("generator"). Any other error reading the file is
// returned, never papered over by the generator. An empty dir skips the
// file lookup entirely.
func (e Entry) Load(dir string) (*sparse.Matrix, string, error) {
	if dir != "" {
		path := filepath.Join(dir, e.Name+".mtx")
		data, err := os.ReadFile(path)
		if err == nil {
			// A one-shot parser is never reused, so the returned matrix
			// can keep aliasing its buffers.
			var p sparse.Parser
			m, err := p.ParseBytes(data)
			if err != nil {
				return nil, "", fmt.Errorf("corpus: %s: %w", path, err)
			}
			return m, "file", nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", fmt.Errorf("corpus: %w", err)
		}
	}
	m, err := e.Generate()
	if err != nil {
		return nil, "", err
	}
	return m, "generator", nil
}

const suiteSparse = "https://suitesparse-collection-website.herokuapp.com/MM/"

// DefaultManifest is the compiled-in corpus: two matrices per family, each
// with a real SuiteSparse source and a same-family generator fallback sized
// to keep a full pipeline run in seconds.
func DefaultManifest() []Entry {
	return []Entry{
		{Name: "nos4", Family: FamilyGrid2D, URL: suiteSparse + "HB/nos4.tar.gz",
			Gen: GenSpec{Kind: "grid2d", N: 10}},
		{Name: "gridgen-48", Family: FamilyGrid2D,
			Gen: GenSpec{Kind: "grid2d", N: 48}},
		{Name: "bcsstk10", Family: FamilyGrid3D, URL: suiteSparse + "HB/bcsstk10.tar.gz",
			Gen: GenSpec{Kind: "grid3d", N: 11}},
		{Name: "grid3gen-10", Family: FamilyGrid3D,
			Gen: GenSpec{Kind: "grid3d", N: 10}},
		{Name: "ca-GrQc", Family: FamilyPowerLaw, URL: suiteSparse + "SNAP/ca-GrQc.tar.gz",
			Gen: GenSpec{Kind: "rmat", N: 2048, Arg: 4, Seed: 7001}},
		{Name: "rmatgen-1500", Family: FamilyPowerLaw,
			Gen: GenSpec{Kind: "rmat", N: 1500, Arg: 3, Seed: 7002}},
		{Name: "bcsstk08", Family: FamilyBanded, URL: suiteSparse + "HB/bcsstk08.tar.gz",
			Gen: GenSpec{Kind: "band", N: 1074, Arg: 6}},
		{Name: "bandgen-1200", Family: FamilyBanded,
			Gen: GenSpec{Kind: "band", N: 1200, Arg: 10}},
	}
}

// SmokeManifest is the CI-sized corpus: one small generator entry per
// family, fast enough for smoke jobs yet exercising every family branch.
func SmokeManifest() []Entry {
	return []Entry{
		{Name: "smoke-grid2d", Family: FamilyGrid2D, Gen: GenSpec{Kind: "grid2d", N: 9}},
		{Name: "smoke-grid3d", Family: FamilyGrid3D, Gen: GenSpec{Kind: "grid3d", N: 4}},
		{Name: "smoke-rmat", Family: FamilyPowerLaw, Gen: GenSpec{Kind: "rmat", N: 160, Arg: 3, Seed: 7100}},
		{Name: "smoke-band", Family: FamilyBanded, Gen: GenSpec{Kind: "band", N: 150, Arg: 4}},
	}
}

// SuiteManifest is Section VI's generator-only suite at scale small,
// medium or full: grid Laplacians, random and scale-free symmetric patterns
// and banded matrices standing in for the paper's University of Florida
// matrices (DESIGN.md, "Dataset substitution"). Entry order is part of the
// suite: the random-weight copies of Section VI-E are seeded by position.
func SuiteManifest(scale string) ([]Entry, error) {
	grid2 := func(k int) Entry {
		return Entry{Name: fmt.Sprintf("grid2d-%d", k), Family: FamilyGrid2D, Gen: GenSpec{Kind: "grid2d", N: k}}
	}
	grid3 := func(k int) Entry {
		return Entry{Name: fmt.Sprintf("grid3d-%d", k), Family: FamilyGrid3D, Gen: GenSpec{Kind: "grid3d", N: k}}
	}
	rnd := func(n int, deg float64, seed int64) Entry {
		return Entry{Name: fmt.Sprintf("rand-%d-d%.1f", n, deg), Family: FamilyRandom,
			Gen: GenSpec{Kind: "random", N: n, Arg: deg, Seed: seed}}
	}
	band := func(n, hb int) Entry {
		return Entry{Name: fmt.Sprintf("band-%d-b%d", n, hb), Family: FamilyBanded,
			Gen: GenSpec{Kind: "band", N: n, Arg: float64(hb)}}
	}
	sf := func(n, epn int, seed int64) Entry {
		return Entry{Name: fmt.Sprintf("scalefree-%d-e%d", n, epn), Family: FamilyPowerLaw,
			Gen: GenSpec{Kind: "scalefree", N: n, Arg: float64(epn), Seed: seed}}
	}
	switch scale {
	case "small":
		return []Entry{grid2(8), grid3(4), rnd(80, 2.5, 101)}, nil
	case "medium":
		return []Entry{
			grid2(16), grid2(24), grid2(32),
			grid3(6), grid3(8),
			rnd(400, 2.5, 101), rnd(800, 3, 102),
			band(600, 4),
		}, nil
	case "full":
		return []Entry{
			grid2(20), grid2(28), grid2(36), grid2(44), grid2(52), grid2(64),
			grid2(80), grid2(96), grid2(112),
			grid3(6), grid3(8), grid3(10), grid3(12), grid3(14), grid3(16),
			rnd(500, 2.5, 101), rnd(1000, 2.5, 102), rnd(1500, 3, 103),
			rnd(2500, 3, 104), rnd(4000, 2.5, 105),
			band(1000, 5), band(2000, 8), band(3000, 16), band(5000, 24),
			sf(1000, 2, 201), sf(2000, 2, 202), sf(3000, 3, 203), sf(5000, 2, 204),
		}, nil
	default:
		return nil, fmt.Errorf("corpus: unknown scale %q (want small, medium or full)", scale)
	}
}

// Families returns the matrix-name → family map of a manifest, for report
// aggregation.
func Families(entries []Entry) map[string]Family {
	out := make(map[string]Family, len(entries))
	for _, e := range entries {
		out[e.Name] = e.Family
	}
	return out
}
