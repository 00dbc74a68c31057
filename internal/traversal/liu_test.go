package traversal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// Profile invariants: hills non-increasing, valleys non-decreasing, every
// hill at least its valley, first hill = optimal memory, last valley =
// the root's file.
func TestQuickLiuProfileInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(51))}
	prop := func(seed int64, p uint8, kind uint8) bool {
		tr := randomTree(seed, 1+int(p%100), tree.AttachKind(kind%3))
		prof := LiuProfile(tr)
		if len(prof) == 0 {
			return false
		}
		if prof[0].Hill != LiuExact(tr).Memory {
			return false
		}
		if prof[len(prof)-1].Valley != tr.F(tr.Root()) {
			return false
		}
		for i, s := range prof {
			if s.Hill < s.Valley {
				return false
			}
			if i > 0 {
				if s.Hill > prof[i-1].Hill || s.Valley < prof[i-1].Valley {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The harpoon has a known two-stage profile per branch; the root profile's
// first hill must equal the closed-form optimum.
func TestLiuProfileHarpoon(t *testing.T) {
	h, err := tree.NestedHarpoon(3, 1, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := LiuProfile(h)
	if prof[0].Hill != tree.HarpoonOptimalMemory(3, 1, 30, 1) {
		t.Fatalf("first hill %d, want %d", prof[0].Hill, tree.HarpoonOptimalMemory(3, 1, 30, 1))
	}
	if prof[len(prof)-1].Valley != 0 {
		t.Fatalf("last valley %d, want 0 (root file)", prof[len(prof)-1].Valley)
	}
}

// A single node has a single segment (MemReq, f).
func TestLiuProfileSingleNode(t *testing.T) {
	tr := tree.MustNew([]int{tree.NoParent}, []int64{4}, []int64{3})
	prof := LiuProfile(tr)
	if len(prof) != 1 || prof[0].Hill != 7 || prof[0].Valley != 4 {
		t.Fatalf("profile = %+v", prof)
	}
}

// Deep chains stress the iterative traversal code paths: no recursion blowup
// and consistent results at 200k nodes.
func TestDeepChainStress(t *testing.T) {
	if testing.Short() {
		t.Skip("deep chain in -short mode")
	}
	const n = 30_000
	f := make([]int64, n)
	nn := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range f {
		f[i] = 1 + rng.Int63n(50)
		nn[i] = rng.Int63n(10)
	}
	ch, err := tree.Chain(f, nn)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < n-1; i++ {
		want = maxInt64(want, f[i]+nn[i]+f[i+1])
	}
	want = maxInt64(want, f[n-1]+nn[n-1])
	if got := LiuExact(ch).Memory; got != want {
		t.Fatalf("Liu on deep chain: %d, want %d", got, want)
	}
	if got := MinMem(ch).Memory; got != want {
		t.Fatalf("MinMem on deep chain: %d, want %d", got, want)
	}
	if got := BestPostOrder(ch).Memory; got != want {
		t.Fatalf("PostOrder on deep chain: %d, want %d", got, want)
	}
}

// Wide star stress: one node with 100k children.
func TestWideStarStress(t *testing.T) {
	if testing.Short() {
		t.Skip("wide star in -short mode")
	}
	const n = 100_000
	parent := make([]int, n+1)
	f := make([]int64, n+1)
	nn := make([]int64, n+1)
	parent[0] = tree.NoParent
	f[0] = 1
	var sum int64
	rng := rand.New(rand.NewSource(4))
	for i := 1; i <= n; i++ {
		parent[i] = 0
		f[i] = 1 + rng.Int63n(9)
		sum += f[i]
	}
	star, err := tree.New(parent, f, nn)
	if err != nil {
		t.Fatal(err)
	}
	// Every traversal must hold all children files at once after the root.
	want := sum + 1
	for name, got := range map[string]int64{
		"liu":       LiuExact(star).Memory,
		"minmem":    MinMem(star).Memory,
		"postorder": BestPostOrder(star).Memory,
	} {
		if got != want {
			t.Fatalf("%s on star: %d, want %d", name, got, want)
		}
	}
}

// MinMemNoReuse returns the same optimum as MinMem everywhere.
func TestQuickMinMemNoReuseAgrees(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(57))}
	prop := func(seed int64, p uint8, kind uint8) bool {
		tr := randomTree(seed, 1+int(p%80), tree.AttachKind(kind%3))
		a := MinMem(tr)
		b := MinMemNoReuse(tr)
		if a.Memory != b.Memory {
			return false
		}
		peak, err := Peak(tr, b.Order)
		return err == nil && peak == b.Memory
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// ExploreCalls with reuse never exceeds the restart variant.
func TestExploreCallsAccounting(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := randomTree(seed, 50+int(seed)*13, tree.AttachKind(seed%3))
		withR := ExploreCalls(tr, true)
		withoutR := ExploreCalls(tr, false)
		if withR <= 0 || withoutR <= 0 {
			t.Fatalf("seed %d: no calls counted", seed)
		}
		if withR > withoutR {
			t.Fatalf("seed %d: reuse cost %d > restart %d", seed, withR, withoutR)
		}
	}
}

func TestTraversalWithin(t *testing.T) {
	tr := sample(t)
	opt := MinMem(tr).Memory
	order, err := TraversalWithin(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInCore(tr, order, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := TraversalWithin(tr, opt-1); err == nil {
		t.Fatal("insufficient memory accepted")
	}
	// A generous budget also works and stays feasible at that budget.
	order2, err := TraversalWithin(tr, opt*10)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInCore(tr, order2, opt*10); err != nil {
		t.Fatal(err)
	}
}
