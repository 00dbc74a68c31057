package traversal

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// sample is a small tree with a known optimal traversal.
func sample(t *testing.T) *tree.Tree {
	t.Helper()
	parent := []int{tree.NoParent, 0, 0, 1, 1, 2, 3, 5}
	f := []int64{0, 4, 2, 3, 1, 5, 2, 6}
	n := []int64{1, 2, 0, 1, 3, 2, 1, 0}
	return tree.MustNew(parent, f, n)
}

func randomTree(seed int64, nodes int, kind tree.AttachKind) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 20, MaxN: 8, Attach: kind})
	if err != nil {
		panic(err)
	}
	return tr
}

func TestPeakSimple(t *testing.T) {
	// Chain 0→1→2 with f = 1,2,3 and n = 0: top-down steps:
	// step 0: f0 resident (1), creates f1: peak = 1+0+2 = 3
	// step 1: f1 resident (2), creates f2: peak = 2+0+3 = 5
	// step 2: f2 resident (3): peak = 3
	ch, err := tree.Chain([]int64{1, 2, 3}, []int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	peak, err := Peak(ch, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 5 {
		t.Fatalf("Peak = %d, want 5", peak)
	}
	// Bottom-up view: process 2 (3), then 1 (3+2), then 0 (2+1).
	bu, err := PeakBottomUp(ch, []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if bu != 5 {
		t.Fatalf("PeakBottomUp = %d, want 5", bu)
	}
}

func TestPeakRejectsBadOrders(t *testing.T) {
	tr := sample(t)
	if _, err := Peak(tr, []int{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := Peak(tr, []int{1, 0, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Fatal("precedence violation accepted")
	}
	if _, err := PeakBottomUp(tr, tr.TopDown()); err == nil {
		t.Fatal("top-down order accepted as bottom-up")
	}
}

func TestCheckInCore(t *testing.T) {
	tr := sample(t)
	res := MinMem(tr)
	if err := CheckInCore(tr, res.Order, res.Memory); err != nil {
		t.Fatalf("MinMem order infeasible at its own memory: %v", err)
	}
	if err := CheckInCore(tr, res.Order, res.Memory-1); err == nil {
		t.Fatal("order feasible below optimal memory")
	}
}

// All four algorithms agree on the optimum, and PostOrder is an upper bound.
func TestAlgorithmsAgreeSample(t *testing.T) {
	tr := sample(t)
	bf, err := BruteForce(tr)
	if err != nil {
		t.Fatal(err)
	}
	en, err := EnumerateMinMemory(tr)
	if err != nil {
		t.Fatal(err)
	}
	mm := MinMem(tr)
	liu := LiuExact(tr)
	po := BestPostOrder(tr)
	if bf.Memory != en {
		t.Fatalf("BruteForce %d != Enumerate %d", bf.Memory, en)
	}
	if mm.Memory != bf.Memory {
		t.Fatalf("MinMem %d != optimal %d", mm.Memory, bf.Memory)
	}
	if liu.Memory != bf.Memory {
		t.Fatalf("Liu %d != optimal %d", liu.Memory, bf.Memory)
	}
	if po.Memory < bf.Memory {
		t.Fatalf("PostOrder %d below optimal %d", po.Memory, bf.Memory)
	}
	for name, r := range map[string]Result{"minmem": mm, "liu": liu, "postorder": po, "brute": bf} {
		peak, err := Peak(tr, r.Order)
		if err != nil {
			t.Fatalf("%s: invalid order: %v", name, err)
		}
		if peak != r.Memory {
			t.Fatalf("%s: order peak %d != claimed %d", name, peak, r.Memory)
		}
	}
}

func TestSingleNode(t *testing.T) {
	tr := tree.MustNew([]int{tree.NoParent}, []int64{5}, []int64{3})
	for name, got := range map[string]int64{
		"minmem":    MinMem(tr).Memory,
		"liu":       LiuExact(tr).Memory,
		"postorder": BestPostOrder(tr).Memory,
	} {
		if got != 8 {
			t.Fatalf("%s on single node = %d, want 8", name, got)
		}
	}
}

func TestChainTrees(t *testing.T) {
	// On a chain the only traversal is the chain itself; optimal memory is
	// max over consecutive pairs of f_i + n_i + f_{i+1}.
	f := []int64{2, 7, 1, 9, 4}
	n := []int64{1, 0, 3, 0, 2}
	ch, err := tree.Chain(f, n)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 4; i++ {
		want = maxInt64(want, f[i]+n[i]+f[i+1])
	}
	want = maxInt64(want, f[4]+n[4])
	for name, got := range map[string]int64{
		"minmem":    MinMem(ch).Memory,
		"liu":       LiuExact(ch).Memory,
		"postorder": BestPostOrder(ch).Memory,
	} {
		if got != want {
			t.Fatalf("%s on chain = %d, want %d", name, got, want)
		}
	}
}

// The harpoon trees of Theorem 1 have closed-form optimal and postorder
// memory; the implementations must match them exactly.
func TestTheorem1Harpoons(t *testing.T) {
	for _, tc := range []struct {
		b, l   int
		m, eps int64
	}{
		{2, 1, 8, 1}, {3, 1, 30, 1}, {4, 1, 40, 2},
		{2, 2, 16, 1}, {3, 2, 30, 1}, {2, 3, 32, 1}, {3, 3, 60, 2},
	} {
		h, err := tree.NestedHarpoon(tc.b, tc.l, tc.m, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		wantOpt := tree.HarpoonOptimalMemory(tc.b, tc.l, tc.m, tc.eps)
		wantPO := tree.HarpoonPostOrderMemory(tc.b, tc.l, tc.m, tc.eps)
		mm := MinMem(h)
		liu := LiuExact(h)
		po := BestPostOrder(h)
		if mm.Memory != wantOpt {
			t.Errorf("b=%d L=%d: MinMem=%d want %d", tc.b, tc.l, mm.Memory, wantOpt)
		}
		if liu.Memory != wantOpt {
			t.Errorf("b=%d L=%d: Liu=%d want %d", tc.b, tc.l, liu.Memory, wantOpt)
		}
		if po.Memory != wantPO {
			t.Errorf("b=%d L=%d: PostOrder=%d want %d", tc.b, tc.l, po.Memory, wantPO)
		}
	}
}

// Theorem 1: the postorder-to-optimal ratio is unbounded in L.
func TestTheorem1RatioGrows(t *testing.T) {
	prev := 0.0
	for l := 1; l <= 5; l++ {
		h, err := tree.NestedHarpoon(4, l, 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(BestPostOrder(h).Memory) / float64(MinMem(h).Memory)
		if ratio <= prev {
			t.Fatalf("ratio did not grow at L=%d: %f ≤ %f", l, ratio, prev)
		}
		prev = ratio
	}
	if prev < 2.5 {
		t.Fatalf("ratio at L=5 only %f; expected well above 2.5", prev)
	}
}

// Cross-validation of all algorithms on random trees against brute force.
func TestAlgorithmsAgreeRandom(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		nodes := 2 + int(seed%14)
		kind := tree.AttachKind(seed % 3)
		tr := randomTree(seed, nodes, kind)
		bf, err := BruteForce(tr)
		if err != nil {
			t.Fatal(err)
		}
		mm := MinMem(tr)
		liu := LiuExact(tr)
		po := BestPostOrder(tr)
		np := NaturalPostOrder(tr)
		if mm.Memory != bf.Memory {
			t.Fatalf("seed %d: MinMem=%d optimal=%d", seed, mm.Memory, bf.Memory)
		}
		if liu.Memory != bf.Memory {
			t.Fatalf("seed %d: Liu=%d optimal=%d", seed, liu.Memory, bf.Memory)
		}
		if po.Memory < bf.Memory {
			t.Fatalf("seed %d: PostOrder=%d below optimal=%d", seed, po.Memory, bf.Memory)
		}
		if np.Memory < po.Memory {
			t.Fatalf("seed %d: natural postorder %d beats best postorder %d", seed, np.Memory, po.Memory)
		}
		for name, r := range map[string]Result{"minmem": mm, "liu": liu, "postorder": po} {
			peak, err := Peak(tr, r.Order)
			if err != nil {
				t.Fatalf("seed %d %s: invalid order: %v", seed, name, err)
			}
			if peak != r.Memory {
				t.Fatalf("seed %d %s: peak %d != claimed %d", seed, name, peak, r.Memory)
			}
		}
	}
}

// Larger random trees: exact algorithms agree with each other (no brute
// force available) and their traversals achieve the claimed memory.
func TestExactAlgorithmsAgreeLarge(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		nodes := 300 + int(seed)*137
		tr := randomTree(seed+1000, nodes, tree.AttachKind(seed%3))
		mm := MinMem(tr)
		liu := LiuExact(tr)
		po := BestPostOrder(tr)
		if mm.Memory != liu.Memory {
			t.Fatalf("seed %d: MinMem=%d Liu=%d", seed, mm.Memory, liu.Memory)
		}
		if po.Memory < mm.Memory {
			t.Fatalf("seed %d: postorder below optimal", seed)
		}
		for name, r := range map[string]Result{"minmem": mm, "liu": liu, "postorder": po} {
			peak, err := Peak(tr, r.Order)
			if err != nil || peak != r.Memory {
				t.Fatalf("seed %d %s: peak=%d claimed=%d err=%v", seed, name, peak, r.Memory, err)
			}
		}
	}
}

// Property: the reversal lemma of Section III-C — peak of a bottom-up order
// equals the peak of its reversed top-down order.
func TestQuickReversalLemma(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64, p uint8, kind uint8) bool {
		tr := randomTree(seed, 1+int(p%80), tree.AttachKind(kind%3))
		bu := tr.Postorder()
		a, err1 := PeakBottomUp(tr, bu)
		b, err2 := Peak(tr, tree.ReverseOrder(bu))
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: MinMem == Liu on random trees, and postorder sandwiched between
// optimal and natural postorder.
func TestQuickExactEquality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}
	prop := func(seed int64, p uint8, kind uint8) bool {
		tr := randomTree(seed, 1+int(p%120), tree.AttachKind(kind%3))
		mm := MinMem(tr)
		liu := LiuExact(tr)
		po := BestPostOrder(tr)
		np := NaturalPostOrder(tr)
		return mm.Memory == liu.Memory && po.Memory >= mm.Memory && np.Memory >= po.Memory
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: MinMem on the replacement-model transform matches brute force
// (exercises negative execution files).
func TestQuickReplacementModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}
	prop := func(seed int64, p uint8) bool {
		base := randomTree(seed, 2+int(p%10), tree.AttachUniform)
		tr, err := tree.FromReplacementModel(base.ParentVector(), base.FVector())
		if err != nil {
			return false
		}
		bf, err := BruteForce(tr)
		if err != nil {
			return false
		}
		return MinMem(tr).Memory == bf.Memory && LiuExact(tr).Memory == bf.Memory
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExploreReportsPartialState(t *testing.T) {
	tr := sample(t)
	opt := MinMem(tr).Memory
	// Explore with insufficient memory must stall with a finite peak and a
	// frontier strictly inside the tree.
	minMem, frontier, order, peak := Explore(tr, tr.MaxMemReq())
	if opt > tr.MaxMemReq() {
		if peak == Infinite {
			t.Fatal("Explore claims completion below optimal memory")
		}
		if len(frontier) == 0 {
			t.Fatal("stalled Explore returned empty frontier")
		}
		if minMem <= 0 {
			t.Fatal("stalled Explore returned nonpositive frontier memory")
		}
	}
	// Explore with the optimal memory must finish.
	minMem2, frontier2, order2, peak2 := Explore(tr, opt)
	if peak2 != Infinite || len(frontier2) != 0 || minMem2 != 0 {
		t.Fatalf("Explore(opt) did not finish: min=%d cut=%v peak=%d", minMem2, frontier2, peak2)
	}
	if len(order2) != tr.Len() {
		t.Fatalf("Explore(opt) traversal has %d nodes, want %d", len(order2), tr.Len())
	}
	_ = order
}

func TestBruteForceRejectsLargeTrees(t *testing.T) {
	tr := randomTree(1, BruteForceLimit+1, tree.AttachUniform)
	if _, err := BruteForce(tr); err == nil {
		t.Fatal("BruteForce accepted oversized tree")
	}
	if _, err := EnumerateMinMemory(tr); err == nil {
		t.Fatal("EnumerateMinMemory accepted oversized tree")
	}
}

// BruteForce against full enumeration on tiny trees.
func TestBruteForceMatchesEnumeration(t *testing.T) {
	for seed := int64(200); seed < 240; seed++ {
		tr := randomTree(seed, 2+int(seed%8), tree.AttachKind(seed%3))
		bf, err := BruteForce(tr)
		if err != nil {
			t.Fatal(err)
		}
		en, err := EnumerateMinMemory(tr)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Memory != en {
			t.Fatalf("seed %d: BruteForce=%d Enumerate=%d", seed, bf.Memory, en)
		}
	}
}

// The PostOrder lower bound: on trees where every node has at most one
// child (chains), all algorithms coincide.
func TestQuickChainCoincidence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64, p uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + int(p%40)
		f := make([]int64, nodes)
		n := make([]int64, nodes)
		for i := range f {
			f[i] = 1 + rng.Int63n(30)
			n[i] = rng.Int63n(10)
		}
		ch, err := tree.Chain(f, n)
		if err != nil {
			return false
		}
		mm := MinMem(ch)
		return mm.Memory == LiuExact(ch).Memory && mm.Memory == BestPostOrder(ch).Memory
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// BestPostOrder returns the reference's peak and order on random trees of
// every attachment kind, ties in the child key included (small weights).
func TestBestPostOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 1 + rng.Intn(400), MaxF: 1 + rng.Int63n(20), MaxN: 1 + rng.Int63n(8), Attach: tree.AttachKind(trial % 5)})
		if err != nil {
			t.Fatal(err)
		}
		got, want := BestPostOrder(tr), refBestPostOrder(tr)
		if got.Memory != want.Memory || !slices.Equal(got.Order, want.Order) {
			t.Fatalf("trial %d: BestPostOrder differs from the reference", trial)
		}
	}
}
