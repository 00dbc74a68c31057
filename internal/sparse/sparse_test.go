package sparse

import (
	"bytes"
	"fmt"
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
	if !provenSymmetric(s) {
		t.Fatal("Symmetrize result not symmetric with a full diagonal")
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
	if avg := float64(m.NNZ()) / float64(m.N()); avg < 3 {
		t.Fatalf("average degree %f too low", avg)
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
		if !provenSymmetric(s) {
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

// Permute of a pattern Symmetrize recorded as symmetric skips the
// transpose. On random patterns, and on a second permutation of the
// result, it must equal the scatter-plus-transpose path taken for the
// same pattern unrecorded, and record its own result as symmetric.
func TestPermuteRecordedSymmetricMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(what string, a, b *Matrix) {
		t.Helper()
		if a.n != b.n || !reflect.DeepEqual(a.colPtr, b.colPtr) || !reflect.DeepEqual(a.rowIdx, b.rowIdx) {
			t.Fatalf("%s: recorded-symmetric Permute differs from scatter plus transpose", what)
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		var (
			m   *Matrix
			err error
		)
		if trial%2 == 0 {
			m, err = RandomSymmetric(rng, n, float64(1+rng.Intn(4)))
		} else {
			// A general pattern, symmetric only once symmetrized.
			cols := make([][]int, n)
			for e := rng.Intn(3 * n); e > 0; e-- {
				j := rng.Intn(n)
				cols[j] = append(cols[j], rng.Intn(n))
			}
			m, err = New(n, cols)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := m.Symmetrize()
		if !s.symmetric || !provenSymmetric(s) {
			t.Fatalf("trial %d: Symmetrize result not recorded or not symmetric", trial)
		}
		u := *s
		u.symmetric = false
		perm := rng.Perm(s.n)
		got, err := s.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := u.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("trial %d", trial), got, want)
		if !got.symmetric || want.symmetric || !provenSymmetric(got) {
			t.Fatalf("trial %d: Permute recorded symmetry %v (unrecorded input: %v)", trial, got.symmetric, want.symmetric)
		}
		perm2 := rng.Perm(s.n)
		got2, err := got.Permute(perm2)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := want.Permute(perm2)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("trial %d, second permutation", trial), got2, want2)
		if !got2.symmetric || !provenSymmetric(got2) {
			t.Fatalf("trial %d: second permutation not recorded or not symmetric", trial)
		}
	}
	// A general pattern is never recorded, so it still transposes.
	g, err := New(3, [][]int{{0, 2}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.Permute([]int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if pg.symmetric || !pg.Has(0, 2) || pg.Has(2, 0) {
		t.Fatal("Permute of a general pattern lost its orientation")
	}
}

// provenSymmetric runs the full symmetry and diagonal walks on an
// unrecorded copy of m, so a matrix recorded as symmetric is checked
// rather than trusted: trusting the record is correct only if every
// recorded matrix passes them.
func provenSymmetric(m *Matrix) bool {
	u := *m
	u.symmetric = false
	return u.IsSymmetric() && u.HasFullDiagonal() && refIsSymmetric(&u)
}

// Every matrix recorded as symmetric passes the full walks unrecorded:
// Symmetrize results of general, symmetric and diagonal-free patterns,
// and chains of permutations of them. IsSymmetric and HasFullDiagonal
// return true for those without walking, and false for an unrecorded
// asymmetric or diagonal-free pattern.
func TestRecordedSymmetryPassesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(150)
		cols := make([][]int, n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			j := rng.Intn(n)
			cols[j] = append(cols[j], rng.Intn(n))
		}
		m, err := New(n, cols)
		if err != nil {
			t.Fatal(err)
		}
		cur := m.Symmetrize()
		for step := 0; step < 3; step++ {
			if !cur.symmetric || !cur.IsSymmetric() || !cur.HasFullDiagonal() {
				t.Fatalf("trial %d step %d: recorded result not reported symmetric", trial, step)
			}
			if !provenSymmetric(cur) {
				t.Fatalf("trial %d step %d: recorded result fails the full walk", trial, step)
			}
			if cur, err = cur.Permute(rng.Perm(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	asym, err := New(3, [][]int{{0, 2}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	nodiag, err := New(2, [][]int{{1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if asym.IsSymmetric() || nodiag.HasFullDiagonal() {
		t.Fatal("unrecorded pattern trusted without the walk")
	}
}

// Symmetrize equals the reference on general, symmetric, diagonal-free and
// recorded patterns, and allocates its result at its exact size.
func TestSymmetrizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(120)
		cols := make([][]int, n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if trial%4 == 3 && i == j {
				continue // no diagonal at all
			}
			cols[j] = append(cols[j], i)
			if trial%2 == 1 {
				cols[i] = append(cols[i], j) // symmetric input
			}
		}
		m, err := New(n, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*Matrix{m, m.Symmetrize()} {
			got, want := in.Symmetrize(), refSymmetrize(in)
			if got.n != want.n || !reflect.DeepEqual(got.colPtr, want.colPtr) || !reflect.DeepEqual(got.rowIdx, want.rowIdx) {
				t.Fatalf("trial %d: Symmetrize differs from the reference", trial)
			}
			if !got.symmetric || cap(got.rowIdx) != len(got.rowIdx) {
				t.Fatalf("trial %d: result not recorded (%v) or not exactly sized (%d of %d)", trial, got.symmetric, len(got.rowIdx), cap(got.rowIdx))
			}
		}
	}
}
