package factor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traversal"
	"repro/internal/tree"
)

func laplacianOf(t *testing.T, pattern *sparse.Matrix) *SPD {
	t.Helper()
	a, err := Laplacian(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFactorSolveGrid(t *testing.T) {
	g, err := sparse.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := laplacianOf(t, g)
	chol, st, err := Multifrontal(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fronts != 64 || st.FactorNNZ < 64 {
		t.Fatalf("stats = %+v", st)
	}
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, err := chol.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if res := Residual(a, x, b); res > 1e-9 {
		t.Fatalf("residual %g too large", res)
	}
}

// The headline validation: the measured peak of live dense entries equals
// the paper-model prediction exactly, for several orderings and traversals.
func TestMeasuredPeakEqualsModel(t *testing.T) {
	g, err := sparse.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	md, err := ordering.MinimumDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	pmd, err := g.Permute(md)
	if err != nil {
		t.Fatal(err)
	}
	for name, pattern := range map[string]*sparse.Matrix{"natural": g, "md": pmd} {
		a := laplacianOf(t, pattern)
		_, st, err := Multifrontal(a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.PeakLive != st.ModelPeak {
			t.Fatalf("%s: measured peak %d != model %d", name, st.PeakLive, st.ModelPeak)
		}
	}
}

// An optimal traversal from the model really does reduce the measured
// factorization memory (or at least never increases it) compared to an
// arbitrary postorder.
func TestOptimalTraversalHelpsRealFactorization(t *testing.T) {
	g, err := sparse.Grid3D(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := ordering.NestedDissection(g, ordering.NestedDissectionOptions{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	a := laplacianOf(t, pg)
	// Default (etree postorder).
	_, stPost, err := Multifrontal(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Model-optimal traversal: build the weighted etree, solve MinMemory,
	// feed the bottom-up order back into the numeric code.
	parent, err := symbolic.EliminationTree(a.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := symbolic.ColumnCounts(a.Pattern, parent)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Pattern.N()
	f := make([]int64, n)
	nn := make([]int64, n)
	for j := 0; j < n; j++ {
		mu := counts[j]
		f[j] = (mu - 1) * (mu - 1)
		nn[j] = mu*mu - (mu-1)*(mu-1)
	}
	for j, p := range parent {
		if p == symbolic.NoParent {
			f[j] = 0
		}
	}
	wt, err := tree.New(parent, f, nn)
	if err != nil {
		t.Fatal(err)
	}
	opt := traversal.MinMem(wt)
	order := tree.ReverseOrder(opt.Order) // bottom-up for the numeric sweep
	_, stOpt, err := Multifrontal(a, Options{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if stOpt.PeakLive != opt.Memory {
		t.Fatalf("optimal traversal measured %d, model promised %d", stOpt.PeakLive, opt.Memory)
	}
	if stOpt.PeakLive > stPost.PeakLive {
		t.Fatalf("optimal traversal used more memory (%d) than postorder (%d)", stOpt.PeakLive, stPost.PeakLive)
	}
	t.Logf("postorder peak %d, optimal peak %d", stPost.PeakLive, stOpt.PeakLive)
}

func TestMultifrontalErrors(t *testing.T) {
	g, err := sparse.Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := laplacianOf(t, g)
	// Invalid orders.
	if _, _, err := Multifrontal(a, Options{Order: []int{0, 1}}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, _, err := Multifrontal(a, Options{Order: []int{0, 0, 1, 2, 3, 4, 5, 6, 7}}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	top := make([]int, 9)
	parent, _ := symbolic.EliminationTree(g)
	// Build a top-down order (root first): invalid for the bottom-up sweep.
	post := symbolic.EtreePostorder(parent)
	for i, v := range post {
		top[len(post)-1-i] = v
	}
	if _, _, err := Multifrontal(a, Options{Order: top}); err == nil {
		t.Fatal("top-down order accepted")
	}
	// Indefinite matrix: flip a diagonal sign.
	bad := &SPD{Pattern: a.Pattern, Values: append([]float64(nil), a.Values...)}
	base := 0
	for j := 0; j < bad.Pattern.N(); j++ {
		col := bad.Pattern.Col(j)
		for k, i := range col {
			if int(i) == j && j == 0 {
				bad.Values[base+k] = -5
			}
		}
		base += len(col)
	}
	if _, _, err := Multifrontal(bad, Options{}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestLaplacianValidation(t *testing.T) {
	g, err := sparse.Grid2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Laplacian(g); err != nil {
		t.Fatal(err)
	}
	asym, err := sparse.New(2, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Laplacian(asym); err == nil {
		t.Fatal("asymmetric Laplacian accepted")
	}
}

func TestSolveErrors(t *testing.T) {
	g, err := sparse.Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := laplacianOf(t, g)
	chol, _, err := Multifrontal(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chol.Solve([]float64{1, 2}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

// Property: on random SPD systems the factorization solves accurately and
// the measured peak always matches the model, across random traversals.
func TestQuickFactorizationAccuracyAndModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(61))}
	prop := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw%40)
		rng := rand.New(rand.NewSource(seed))
		raw, err := sparse.RandomSymmetric(rng, n, 2)
		if err != nil {
			return false
		}
		a, err := Laplacian(raw.Symmetrize())
		if err != nil {
			return false
		}
		chol, st, err := Multifrontal(a, Options{})
		if err != nil {
			return false
		}
		if st.PeakLive != st.ModelPeak {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := chol.Solve(b)
		if err != nil {
			return false
		}
		return Residual(a, x, b) < 1e-8*math.Max(1, float64(n))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSPDAt(t *testing.T) {
	g, err := sparse.Grid2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := laplacianOf(t, g)
	if got := a.at(0, 0); got != 3 { // corner: degree 2 + 1
		t.Fatalf("at(0,0) = %g, want 3", got)
	}
	if got := a.at(1, 0); got != -1 {
		t.Fatalf("at(1,0) = %g, want -1", got)
	}
	if got := a.at(3, 0); got != 0 {
		t.Fatalf("at(3,0) = %g, want 0", got)
	}
}
