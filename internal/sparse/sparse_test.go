package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDedupAndSort(t *testing.T) {
	m, err := New(3, [][]int{{2, 0, 0, 1}, {1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5 (dedup failed)", m.NNZ())
	}
	if got := m.Col(0); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("Col(0) = %v", got)
	}
	if !m.Has(2, 2) || m.Has(0, 2) {
		t.Fatal("Has broken")
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(2, [][]int{{0}}); err == nil {
		t.Fatal("short cols accepted")
	}
	if _, err := New(2, [][]int{{0}, {5}}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := RandomSymmetric(rng, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	tt := m.Transpose().Transpose()
	if !reflect.DeepEqual(tt.colPtr, m.colPtr) || !reflect.DeepEqual(tt.rowIdx, m.rowIdx) {
		t.Fatal("transpose is not an involution")
	}
}

func TestSymmetrize(t *testing.T) {
	// Asymmetric pattern.
	m, err := New(3, [][]int{{0}, {0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Symmetrize()
	if !s.IsSymmetric() {
		t.Fatal("Symmetrize result not symmetric")
	}
	if !s.HasFullDiagonal() {
		t.Fatal("Symmetrize result lacks diagonal")
	}
	if !s.Has(1, 0) || !s.Has(0, 1) {
		t.Fatal("Symmetrize lost mirrored entry")
	}
}

func TestGrid2D(t *testing.T) {
	g, err := Grid2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	if !g.IsSymmetric() || !g.HasFullDiagonal() {
		t.Fatal("grid must be symmetric with diagonal")
	}
	// Interior node has 5 entries (self + 4 neighbours): node (1,1) = 4.
	if got := len(g.Col(4)); got != 5 {
		t.Fatalf("interior column has %d entries, want 5", got)
	}
	// Corner has 3.
	if got := len(g.Col(0)); got != 3 {
		t.Fatalf("corner column has %d entries, want 3", got)
	}
	if _, err := Grid2D(0, 3); err == nil {
		t.Fatal("bad dims accepted")
	}
}

func TestGrid3D(t *testing.T) {
	g, err := Grid3D(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 27 {
		t.Fatalf("N = %d, want 27", g.N())
	}
	if !g.IsSymmetric() || !g.HasFullDiagonal() {
		t.Fatal("grid must be symmetric with diagonal")
	}
	// Center node 13 has 7 entries.
	if got := len(g.Col(13)); got != 7 {
		t.Fatalf("center column has %d entries, want 7", got)
	}
	if _, err := Grid3D(1, 0, 1); err == nil {
		t.Fatal("bad dims accepted")
	}
}

func TestRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := RandomSymmetric(rng, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric() || !m.HasFullDiagonal() {
		t.Fatal("random symmetric matrix malformed")
	}
	if m.AverageDegree() < 3 {
		t.Fatalf("average degree %f too low", m.AverageDegree())
	}
	if _, err := RandomSymmetric(rng, 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := RandomSymmetric(rng, 5, -1); err == nil {
		t.Fatal("negative degree accepted")
	}
}

func TestBandMatrix(t *testing.T) {
	b, err := BandMatrix(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsSymmetric() || !b.HasFullDiagonal() {
		t.Fatal("band matrix malformed")
	}
	if b.Has(3, 0) {
		t.Fatal("entry outside band present")
	}
	if !b.Has(2, 0) {
		t.Fatal("entry inside band missing")
	}
	if _, err := BandMatrix(0, 1); err == nil {
		t.Fatal("bad n accepted")
	}
}

func TestPermute(t *testing.T) {
	g, err := Grid2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{3, 1, 2, 0}
	pg, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !pg.IsSymmetric() || pg.NNZ() != g.NNZ() {
		t.Fatal("permutation broke pattern")
	}
	// (i,j) in PAPᵀ iff (perm[i], perm[j]) in A.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if pg.Has(i, j) != g.Has(perm[i], perm[j]) {
				t.Fatalf("Permute mismatch at (%d,%d)", i, j)
			}
		}
	}
	if _, err := g.Permute([]int{0, 1}); err == nil {
		t.Fatal("short perm accepted")
	}
	if _, err := g.Permute([]int{0, 0, 1, 2}); err == nil {
		t.Fatal("repeating perm accepted")
	}
	if _, err := g.Permute([]int{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range perm accepted")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := RandomSymmetric(rng, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.colPtr, m.colPtr) || !reflect.DeepEqual(back.rowIdx, m.rowIdx) {
		t.Fatal("MatrixMarket round trip mismatch")
	}
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% lower triangle only
3 3 4
1 1 1.0
2 1 -2.0
3 2 0.5
3 3 7
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(0, 1) && !m.Has(1, 0) {
		t.Fatal("symmetric expansion missing")
	}
	if !m.Has(1, 0) || !m.Has(0, 1) {
		t.Fatal("both triangles expected")
	}
	if m.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", m.NNZ())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 0 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n", // non-square
		"%%MatrixMarket matrix coordinate pattern general\nx 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n", // missing entry
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n9 1\n", // out of range
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\nz 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("ReadMatrixMarket(%q) succeeded, want error", c)
		}
	}
}

// Property: symmetrization is idempotent and always yields a symmetric
// pattern with full diagonal.
func TestQuickSymmetrizeIdempotent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%50)
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]int, n)
		for j := range cols {
			deg := rng.Intn(4)
			for k := 0; k < deg; k++ {
				cols[j] = append(cols[j], rng.Intn(n))
			}
		}
		m, err := New(n, cols)
		if err != nil {
			return false
		}
		s := m.Symmetrize()
		if !s.IsSymmetric() || !s.HasFullDiagonal() {
			return false
		}
		s2 := s.Symmetrize()
		return s2.NNZ() == s.NNZ()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: MatrixMarket round trip on arbitrary random patterns.
func TestQuickMatrixMarketRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%30)
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]int, n)
		for j := range cols {
			deg := rng.Intn(5)
			for k := 0; k < deg; k++ {
				cols[j] = append(cols[j], rng.Intn(n))
			}
		}
		m, err := New(n, cols)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := m.WriteMatrixMarket(&buf); err != nil {
			return false
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.colPtr, m.colPtr) && reflect.DeepEqual(back.rowIdx, m.rowIdx)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := ScaleFree(rng, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 300 {
		t.Fatalf("N = %d", m.N())
	}
	if !m.IsSymmetric() || !m.HasFullDiagonal() {
		t.Fatal("scale-free pattern malformed")
	}
	// Hub structure: the max degree should far exceed the mean.
	maxDeg, sumDeg := 0, 0
	for j := 0; j < m.N(); j++ {
		d := len(m.Col(j))
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / float64(m.N())
	if float64(maxDeg) < 3*mean {
		t.Fatalf("no hubs: max degree %d vs mean %.1f", maxDeg, mean)
	}
	// Connectivity: BFS from 0 reaches everything.
	seen := make([]bool, m.N())
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range m.Col(v) {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, int(w))
			}
		}
	}
	if count != m.N() {
		t.Fatalf("scale-free graph disconnected: reached %d of %d", count, m.N())
	}
	if _, err := ScaleFree(rng, 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ScaleFree(rng, 5, 0); err == nil {
		t.Fatal("epn=0 accepted")
	}
	// Determinism.
	a, _ := ScaleFree(rand.New(rand.NewSource(9)), 50, 2)
	b, _ := ScaleFree(rand.New(rand.NewSource(9)), 50, 2)
	if a.NNZ() != b.NNZ() {
		t.Fatal("scale-free generation not deterministic")
	}
}

func TestAverageDegree(t *testing.T) {
	g, err := Grid2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AverageDegree(); got < 3 || got > 5 {
		t.Fatalf("grid average degree %f implausible", got)
	}
}

// The cursor-per-column IsSymmetric agrees with the transpose-based
// reference on symmetric patterns and on every single-entry perturbation
// of one: a dropped entry, an added entry and a moved entry.
func TestIsSymmetricMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, err := RandomSymmetric(rng, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Grid2D(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Matrix{base, g, base.Transpose()}
	cols := func(m *Matrix) [][]int {
		out := make([][]int, m.N())
		for j := range out {
			for _, i := range m.Col(j) {
				out[j] = append(out[j], int(i))
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		c := cols(base)
		j := rng.Intn(base.N())
		switch trial % 3 {
		case 0: // drop one entry
			if len(c[j]) > 0 {
				c[j] = c[j][1:]
			}
		case 1: // add one entry
			c[j] = append(c[j], rng.Intn(base.N()))
		case 2: // add an entry and its mirror
			i := rng.Intn(base.N())
			c[j] = append(c[j], i)
			c[i] = append(c[i], j)
		}
		m, err := New(base.N(), c)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, m)
	}
	asym, err := New(3, [][]int{{0, 2}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, asym)
	sawFalse := false
	for k, m := range cases {
		got, want := m.IsSymmetric(), refIsSymmetric(m)
		if got != want {
			t.Fatalf("case %d: IsSymmetric %v, reference %v", k, got, want)
		}
		sawFalse = sawFalse || !got
	}
	if !sawFalse {
		t.Fatal("no asymmetric case was generated")
	}
}

// Permute makes a fixed number of allocations, whatever the matrix size.
func TestPermuteAllocationsConstant(t *testing.T) {
	allocs := func(nx int) float64 {
		g, err := Grid2D(nx, nx)
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(int64(nx))).Perm(g.N())
		return testing.AllocsPerRun(3, func() {
			if _, err := g.Permute(perm); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(100)
	if small > 8 || large > 8 {
		t.Fatalf("Permute: %.0f allocs on 100 columns, %.0f on 10,000; want at most 8 at any size", small, large)
	}
}
