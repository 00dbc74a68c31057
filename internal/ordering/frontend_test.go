package ordering

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// frontEndCase is one symmetric pattern of the front-end differential
// tests.
type frontEndCase struct {
	name string
	m    *sparse.Matrix
}

// blockDiag joins patterns into one block-diagonal pattern: a matrix with
// one connected component per block.
func blockDiag(t testing.TB, blocks ...*sparse.Matrix) *sparse.Matrix {
	t.Helper()
	n := 0
	for _, b := range blocks {
		n += b.N()
	}
	cols := make([][]int, 0, n)
	off := 0
	for _, b := range blocks {
		for j := 0; j < b.N(); j++ {
			col := make([]int, 0, len(b.Col(j)))
			for _, i := range b.Col(j) {
				col = append(col, off+int(i))
			}
			cols = append(cols, col)
		}
		off += b.N()
	}
	m, err := sparse.New(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// frontEndCases covers the generator families of the corpus (grid2d,
// grid3d, R-MAT, band) plus tiny, diagonal-only, disconnected and dense
// patterns. Every pattern is symmetrized, as the corpus pipeline does.
func frontEndCases(t testing.TB) []frontEndCase {
	t.Helper()
	must := func(m *sparse.Matrix, err error) *sparse.Matrix {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m.Symmetrize()
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	g2 := must(sparse.Grid2D(12, 9))
	var cases []frontEndCase
	add := func(name string, m *sparse.Matrix) { cases = append(cases, frontEndCase{name, m}) }
	add("grid2d-40x40", must(sparse.Grid2D(40, 40)))
	add("grid2d-17x63", must(sparse.Grid2D(17, 63)))
	add("grid3d-9", must(sparse.Grid3D(9, 9, 9)))
	add("grid3d-4x7x5", must(sparse.Grid3D(4, 7, 5)))
	add("rmat-700", must(sparse.RMAT(rng(1), 700, 4)))
	add("rmat-2000", must(sparse.RMAT(rng(2), 2000, 8)))
	add("band-600-8", must(sparse.BandMatrix(600, 8)))
	add("band-300-1", must(sparse.BandMatrix(300, 1)))
	add("random-400", must(sparse.RandomSymmetric(rng(3), 400, 3)))
	add("single", must(sparse.New(1, [][]int{{0}})))
	add("pair", must(sparse.New(2, [][]int{{0, 1}, {1}})))
	diag := make([][]int, 50)
	for j := range diag {
		diag[j] = []int{j}
	}
	add("diagonal-50", must(sparse.New(50, diag)))
	clique := make([][]int, 40)
	for j := range clique {
		for i := 0; i < 40; i++ {
			clique[j] = append(clique[j], i)
		}
	}
	add("clique-40", must(sparse.New(40, clique)))
	add("disconnected-grids", blockDiag(t, g2, must(sparse.Grid2D(7, 15)), g2))
	add("disconnected-mixed", blockDiag(t, must(sparse.BandMatrix(90, 3)), must(sparse.New(50, diag)), must(sparse.RMAT(rng(4), 200, 3))))
	return cases
}

// sameMatrix fails unless a and b are the same CSC pattern.
func sameMatrix(t testing.TB, what string, a, b *sparse.Matrix) {
	t.Helper()
	if a.N() != b.N() || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: %d×%d with %d entries, reference %d×%d with %d", what, a.N(), a.N(), a.NNZ(), b.N(), b.N(), b.NNZ())
	}
	for j := 0; j < a.N(); j++ {
		if !reflect.DeepEqual(a.Col(j), b.Col(j)) {
			t.Fatalf("%s: column %d is %v, reference %v", what, j, a.Col(j), b.Col(j))
		}
	}
}

// sameAssembly fails unless Amalgamate and the reference agree on the
// tree (digest), the node summaries and every node's column list.
func sameAssembly(t testing.TB, what string, got, want *symbolic.AssemblyResult) {
	t.Helper()
	if got.Tree.Digest() != want.Tree.Digest() {
		t.Fatalf("%s: tree digest %s, reference %s", what, got.Tree.Digest(), want.Tree.Digest())
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("%s: nodes differ from the reference", what)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: columns differ from the reference", what)
	}
}

// checkFrontEnd runs the pipeline stages after an ordering — Permute, then
// Amalgamate at relax 0..16 on the etree and column counts — against their
// references, and the once-per-ordering symbolic.Analysis against
// Amalgamate at every relax.
func checkFrontEnd(t testing.TB, name string, m *sparse.Matrix, perm []int) {
	t.Helper()
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatalf("%s: Permute: %v", name, err)
	}
	ref, err := refPermute(m, perm)
	if err != nil {
		t.Fatalf("%s: reference Permute: %v", name, err)
	}
	sameMatrix(t, name+": Permute", pm, ref)
	parent, err := symbolic.EliminationTree(pm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	counts, err := symbolic.ColumnCounts(pm, parent)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	an, err := symbolic.Analyze(pm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for relax := 0; relax <= 16; relax++ {
		opt := symbolic.AssemblyOptions{Relax: relax}
		got, err := symbolic.Amalgamate(parent, counts, opt)
		if err != nil {
			t.Fatalf("%s/r%d: %v", name, relax, err)
		}
		tr, err := an.Tree(opt)
		if err != nil {
			t.Fatalf("%s/r%d: Analysis.Tree: %v", name, relax, err)
		}
		if tr.Digest() != got.Tree.Digest() {
			t.Fatalf("%s/r%d: Analysis.Tree differs from Amalgamate's tree", name, relax)
		}
		want, err := refAmalgamate(parent, counts, opt)
		if err != nil {
			t.Fatalf("%s/r%d: reference: %v", name, relax, err)
		}
		sameAssembly(t, fmt.Sprintf("%s/r%d", name, relax), got, want)
	}
}

// The flat-array nested dissection returns exactly the reference's
// permutation on every family, tiny and disconnected patterns included,
// at the default, a tiny and the corpus's leaf size.
func TestNestedDissectionMatchesReference(t *testing.T) {
	for _, c := range frontEndCases(t) {
		for _, leaf := range []int{0, 4, 32} {
			opt := NestedDissectionOptions{LeafSize: leaf}
			got, err := NestedDissection(c.m, opt)
			if err != nil {
				t.Fatalf("%s/leaf%d: %v", c.name, leaf, err)
			}
			want, err := refNestedDissection(c.m, opt)
			if err != nil {
				t.Fatalf("%s/leaf%d: reference: %v", c.name, leaf, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/leaf%d: permutation differs from the reference", c.name, leaf)
			}
		}
	}
}

// Permute and Amalgamate (relax 0..16) match their references after every
// ordering the corpus runs, plus a random permutation.
func TestPermuteAndAmalgamateMatchReference(t *testing.T) {
	for _, c := range frontEndCases(t) {
		nd, err := NestedDissection(c.m, NestedDissectionOptions{LeafSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		amd, err := AMD(c.m)
		if err != nil {
			t.Fatal(err)
		}
		rcm, err := ReverseCuthillMcKee(c.m)
		if err != nil {
			t.Fatal(err)
		}
		perms := map[string][]int{
			"natural": Natural(c.m),
			"nd":      nd,
			"amd":     amd,
			"rcm":     rcm,
			"random":  rand.New(rand.NewSource(int64(c.m.N()))).Perm(c.m.N()),
		}
		for ord, perm := range perms {
			checkFrontEnd(t, c.name+"/"+ord, c.m, perm)
		}
	}
}

// Permute keeps every permutation check and error of the reference.
func TestPermuteRejectsBadPermutations(t *testing.T) {
	m, err := sparse.Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{
		{0, 1, 2},
		{0, 1, 2, 3, 4, 5, 6, 7, 9},
		{0, 1, 2, 3, 4, 5, 6, 7, -1},
		{0, 1, 2, 3, 4, 5, 6, 7, 7},
	} {
		_, err := m.Permute(perm)
		_, refErr := refPermute(m, perm)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("Permute(%v): error %v, reference %v", perm, err, refErr)
		}
	}
}

// A disconnected part is not dissected: bisect cannot split it, so it is
// ordered whole by minimum degree. On a pattern disconnected at the top
// level that makes the whole dissection exactly AMD's ordering. The trees
// of the corpus encode this fallback; dissecting each component instead
// is a separate, measured change.
func TestNestedDissectionOrdersDisconnectedPartWhole(t *testing.T) {
	g := grid(t, 10, 10)
	m := blockDiag(t, g, g)
	nd, err := NestedDissection(m, NestedDissectionOptions{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	amd, err := AMD(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nd, amd) {
		t.Fatalf("nested dissection of a two-component pattern is not its minimum-degree ordering:\nnd  %v\namd %v", nd, amd)
	}
	// Each component alone is connected, so it is dissected.
	ndOne, err := NestedDissection(g, NestedDissectionOptions{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	amdOne, err := AMD(g)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ndOne, amdOne) {
		t.Fatal("a connected grid was ordered by minimum degree, not dissected")
	}
}

// FuzzNDVsReference pins the whole front end on random symmetric
// patterns: nested dissection at three leaf sizes against the reference,
// then Permute and Amalgamate at relax 0..16 against theirs.
func FuzzNDVsReference(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1})
	f.Add(make([]byte, 64))
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	sparseSeed := make([]byte, 1500)
	for i := range sparseSeed {
		if i%13 == 0 || i%29 == 0 {
			sparseSeed[i] = 1
		}
	}
	f.Add(sparseSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzPattern(data)
		for _, leaf := range []int{0, 2, 4, 32} {
			opt := NestedDissectionOptions{LeafSize: leaf}
			got, err := NestedDissection(m, opt)
			if err != nil {
				t.Fatalf("leaf %d: %v", leaf, err)
			}
			want, err := refNestedDissection(m, opt)
			if err != nil {
				t.Fatalf("leaf %d: reference: %v", leaf, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("leaf %d: permutation %v, reference %v", leaf, got, want)
			}
			checkFrontEnd(t, fmt.Sprintf("leaf%d", leaf), m, got)
		}
	})
}

// RCM returns exactly the reference's ordering on every family.
func TestRCMMatchesReference(t *testing.T) {
	for _, c := range frontEndCases(t) {
		got, err := ReverseCuthillMcKee(c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refReverseCuthillMcKee(c.m)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ordering differs from the reference", c.name)
		}
	}
}

// On a diagonal pattern every vertex is its own component. RCM must stay
// linear there: a fixed number of allocations whatever n, where allocating
// a level array per component made the cost O(n × components).
func TestRCMDiagonalStaysLinear(t *testing.T) {
	allocs := func(n int) float64 {
		cols := make([][]int, n)
		for j := range cols {
			cols[j] = []int{j}
		}
		m, err := sparse.New(n, cols)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := ReverseCuthillMcKee(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(8000)
	if small > 8 || large > 8 {
		t.Fatalf("RCM on a diagonal pattern: %.0f allocs at n=2000, %.0f at n=8000; want at most 8 at any size", small, large)
	}
}
