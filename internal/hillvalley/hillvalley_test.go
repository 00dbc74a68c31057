package hillvalley

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

func randomTree(tb testing.TB, seed int64, nodes int) *tree.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tree.RandomOptions{
		Nodes: nodes, MaxF: 15, MaxN: 6, Attach: tree.AttachKind(seed % 3),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// chainWeights draws the weights of a p-node path listed from the root
// down. Half the draws are uniform; the other half form a jittered
// staircase — files growing and execution files shrinking toward the root
// — whose canonical profile keeps about one segment per node, so the
// single-child combine has long profiles to extend and pop.
func chainWeights(rng *rand.Rand, p int) (f, n []int64) {
	f, n = make([]int64, p), make([]int64, p)
	stair := rng.Intn(2) == 0
	for i := range f {
		if stair {
			f[i] = int64(p-i) + rng.Int63n(3)
			n[i] = 3*int64(i+1) + rng.Int63n(4)
		} else {
			f[i] = 1 + rng.Int63n(15)
			n[i] = rng.Int63n(6)
		}
	}
	return f, n
}

// randomPath is a p-node path with chainWeights weights.
func randomPath(tb testing.TB, rng *rand.Rand, p int) *tree.Tree {
	tb.Helper()
	tr, err := tree.Chain(chainWeights(rng, p))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// randomCaterpillar is a path of spine nodes with one or two leaf hairs
// hung on a random half of them, so single-child and multi-child nodes
// alternate along the spine.
func randomCaterpillar(tb testing.TB, rng *rand.Rand, spine int) *tree.Tree {
	tb.Helper()
	f, n := chainWeights(rng, spine)
	parent := make([]int, spine)
	parent[0] = tree.NoParent
	for i := 1; i < spine; i++ {
		parent[i] = i - 1
	}
	for i := 0; i < spine; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for h := 1 + rng.Intn(2); h > 0; h-- {
			parent = append(parent, i)
			f = append(f, 1+rng.Int63n(15))
			n = append(n, rng.Int63n(6))
		}
	}
	tr, err := tree.New(parent, f, n)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// namedTree is one differential-test input.
type namedTree struct {
	name string
	tree *tree.Tree
}

// matrixTrees returns the assembly trees of small band and 2D grid
// matrices under the natural and reverse Cuthill–McKee orderings — the
// chain-heavy shapes the real-matrix front end produces.
func matrixTrees(tb testing.TB) []namedTree {
	tb.Helper()
	band, err := sparse.BandMatrix(150, 3)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := sparse.Grid2D(9, 7)
	if err != nil {
		tb.Fatal(err)
	}
	var out []namedTree
	for _, m := range []struct {
		name string
		m    *sparse.Matrix
	}{{"band-150", band}, {"grid2d-9x7", grid}} {
		s := m.m.Symmetrize()
		rcm, err := ordering.ReverseCuthillMcKee(s)
		if err != nil {
			tb.Fatal(err)
		}
		for _, ord := range []struct {
			name string
			perm []int
		}{{"natural", ordering.Natural(s)}, {"rcm", rcm}} {
			pm, err := s.Permute(ord.perm)
			if err != nil {
				tb.Fatal(err)
			}
			for _, relax := range []int{0, 1, 4} {
				res, err := symbolic.AssemblyTree(pm, symbolic.AssemblyOptions{Relax: relax})
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, namedTree{fmt.Sprintf("%s/%s/r%d", m.name, ord.name, relax), res.Tree})
			}
		}
	}
	return out
}

// The kernel must be bit-identical to the seed implementation — same
// profile segments, same minimum memory, same traversal node-for-node —
// on a large randomized corpus covering all three attachment shapes, on
// paths and caterpillars, where single-child combines dominate, and on
// the assembly trees of band and grid matrices.
func TestKernelMatchesReference(t *testing.T) {
	var trees []namedTree
	for seed := int64(0); seed < 40; seed++ {
		for _, nodes := range []int{1, 2, 3, 7, 25, 60} {
			trees = append(trees, namedTree{fmt.Sprintf("random seed %d nodes %d", seed, nodes), randomTree(t, seed*997+int64(nodes), nodes)})
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 40; i++ {
		p := 1 + rng.Intn(300)
		trees = append(trees,
			namedTree{fmt.Sprintf("path %d (p=%d)", i, p), randomPath(t, rng, p)},
			namedTree{fmt.Sprintf("caterpillar %d (spine %d)", i, p), randomCaterpillar(t, rng, p)})
	}
	trees = append(trees, matrixTrees(t)...)
	var k Kernel // one kernel across all trees: buffer reuse must not leak state
	longest := 0
	for _, nt := range trees {
		tr := nt.tree
		wantProf := refProfile(tr)
		gotProf := k.Profile(tr, nil)
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Fatalf("%s: profile %v != reference %v", nt.name, gotProf, wantProf)
		}
		longest = max(longest, len(gotProf))
		wantMem, wantOrder := refExact(tr)
		gotMem, gotOrder := k.Exact(tr, nil)
		if gotMem != wantMem {
			t.Fatalf("%s: memory %d != reference %d", nt.name, gotMem, wantMem)
		}
		if !reflect.DeepEqual(gotOrder, wantOrder) {
			t.Fatalf("%s: order %v != reference %v", nt.name, gotOrder, wantOrder)
		}
	}
	if len(trees) < 100 {
		t.Fatalf("differential corpus has %d trees, want ≥ 100", len(trees))
	}
	// The staircase paths must give single-child combines long profiles
	// to extend and pop, not just one or two live segments.
	if longest < 50 {
		t.Fatalf("longest root profile has %d segments, want ≥ 50", longest)
	}
}

// The pooled package functions agree with a private kernel.
func TestPooledEntryPoints(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := randomTree(t, seed, 30)
		var k Kernel
		if got, want := Profile(tr), k.Profile(tr, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled profile %v != kernel %v", got, want)
		}
		gm, go_ := Exact(tr)
		km, ko := k.Exact(tr, nil)
		if gm != km || !reflect.DeepEqual(go_, ko) {
			t.Fatalf("pooled exact (%d, %v) != kernel (%d, %v)", gm, go_, km, ko)
		}
	}
}

// The exact order is a valid bottom-up traversal whose naively replayed
// peak equals the reported minimum memory, and no valid traversal found by
// the kernel can beat the profile's first hill.
func TestExactOrderIsOptimalCertificate(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := randomTree(t, seed, 4+int(seed%40))
		mem, order := Exact(tr)
		if err := tr.IsBottomUpOrder(order); err != nil {
			t.Fatalf("seed %d: invalid order: %v", seed, err)
		}
		if peak := refPeakBottomUp(tr, order); peak != mem {
			t.Fatalf("seed %d: replayed peak %d != reported memory %d", seed, peak, mem)
		}
		prof := Profile(tr)
		if prof[0].Hill != mem {
			t.Fatalf("seed %d: first hill %d != memory %d", seed, prof[0].Hill, mem)
		}
	}
}

// Profile invariants: hills non-increasing, valleys non-decreasing, every
// hill at least its valley, last valley = the root's retained file.
func TestProfileInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tr := randomTree(t, seed, 1+int(seed*7%90))
		prof := Profile(tr)
		if len(prof) == 0 {
			t.Fatalf("seed %d: empty profile", seed)
		}
		if last := prof[len(prof)-1].Valley; last != tr.F(tr.Root()) {
			t.Fatalf("seed %d: last valley %d != root file %d", seed, last, tr.F(tr.Root()))
		}
		for i, s := range prof {
			if s.Hill < s.Valley {
				t.Fatalf("seed %d: segment %d hill %d < valley %d", seed, i, s.Hill, s.Valley)
			}
			if i > 0 && (s.Hill > prof[i-1].Hill || s.Valley < prof[i-1].Valley) {
				t.Fatalf("seed %d: profile not canonical at %d: %v", seed, i, prof)
			}
		}
	}
}

func TestCanonicalize(t *testing.T) {
	cases := []struct {
		name string
		raw  []Segment
		want []Segment
	}{
		{"empty", nil, nil},
		{"single", []Segment{{7, 4}}, []Segment{{7, 4}}},
		{"collapse", []Segment{{5, 3}, {9, 2}, {4, 4}}, []Segment{{9, 2}, {4, 4}}},
		{"already-canonical", []Segment{{9, 1}, {7, 2}, {5, 3}}, []Segment{{9, 1}, {7, 2}, {5, 3}}},
		{"rising-hills", []Segment{{3, 1}, {5, 2}, {8, 0}}, []Segment{{8, 0}}},
		{"plateau", []Segment{{6, 2}, {6, 2}}, []Segment{{6, 2}, {6, 2}}},
	}
	for _, c := range cases {
		if got := Canonicalize(c.raw, nil); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Canonicalize(%v) = %v, want %v", c.name, c.raw, got, c.want)
		}
	}
	// Appending to a non-nil dst keeps the prefix.
	dst := []Segment{{1, 1}}
	out := Canonicalize([]Segment{{5, 2}}, dst)
	if !reflect.DeepEqual(out, []Segment{{1, 1}, {5, 2}}) {
		t.Fatalf("append semantics broken: %v", out)
	}
}

// Canonicalize agrees with the kernel's internal canonicalization on the
// per-step memory curve of the kernel's own optimal traversal: replaying
// the exact order and canonicalizing the step curve reproduces the root
// profile (Liu's certificate property).
func TestCanonicalizeOfOptimalReplayIsProfile(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tr := randomTree(t, seed, 1+int(seed*13%70))
		_, order := Exact(tr)
		var resident int64
		curve := make([]Segment, 0, len(order))
		for _, i := range order {
			peak := resident + tr.F(i) + tr.N(i)
			resident += tr.F(i) - tr.ChildFileSum(i)
			curve = append(curve, Segment{Hill: peak, Valley: resident})
		}
		got := Canonicalize(curve, nil)
		want := Profile(tr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: canonicalized replay %v != profile %v", seed, got, want)
		}
	}
}
