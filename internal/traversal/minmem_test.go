package traversal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tree"
)

// chainWeights draws the weights of a p-node path listed from the root
// down: uniform, or a jittered staircase (files growing and execution
// files shrinking toward the root) whose memory curve stays long.
func chainWeights(rng *rand.Rand, p int) (f, n []int64) {
	f, n = make([]int64, p), make([]int64, p)
	stair := rng.Intn(2) == 0
	for i := range f {
		if stair {
			f[i] = int64(p-i) + rng.Int63n(3)
			n[i] = 3*int64(i+1) + rng.Int63n(4)
		} else {
			f[i] = 1 + rng.Int63n(20)
			n[i] = rng.Int63n(8)
		}
	}
	return f, n
}

// randomPath is a p-node path with chainWeights weights.
func randomPath(rng *rand.Rand, p int) *tree.Tree {
	tr, err := tree.Chain(chainWeights(rng, p))
	if err != nil {
		panic(err)
	}
	return tr
}

// randomCaterpillar is a path of spine nodes with one or two leaf hairs
// hung on a random half of them, so single-child and multi-child nodes
// alternate along the spine.
func randomCaterpillar(rng *rand.Rand, spine int) *tree.Tree {
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
			f = append(f, 1+rng.Int63n(20))
			n = append(n, rng.Int63n(8))
		}
	}
	return tree.MustNew(parent, f, n)
}

// minMemDisagreement compares MinMem, MinMemNoReuse, Explore,
// TraversalWithin and ExploreCalls with the preserved per-level-slice
// reference on tr, and MinMem and Explore's frontier with the preserved
// per-node-frontier explore, and describes the first difference found (""
// if none). Explore and TraversalWithin run at budgets below, at and above
// the optimum, so partial frontiers and error reports are compared too.
func minMemDisagreement(tr *tree.Tree) string {
	got := MinMem(tr)
	if want := refMinMem(tr); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("MinMem %+v != reference %+v", got, want)
	}
	if want := sliceMinMem(tr); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("MinMem %+v != per-node-frontier explore %+v", got, want)
	}
	if got, want := MinMemNoReuse(tr), refMinMemNoReuse(tr); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("MinMemNoReuse %+v != reference %+v", got, want)
	}
	for _, reuse := range []bool{true, false} {
		if got, want := ExploreCalls(tr, reuse), refExploreCalls(tr, reuse); got != want {
			return fmt.Sprintf("ExploreCalls(reuse=%v) %d != reference %d", reuse, got, want)
		}
	}
	lo, opt := tr.MaxMemReq(), refMinMem(tr).Memory
	for _, m := range []int64{0, lo - 1, lo, (lo + opt) / 2, opt - 1, opt, opt + 1} {
		gMin, gFront, gOrder, gPeak := Explore(tr, m)
		if want := sliceExploreFrontier(tr, m); !reflect.DeepEqual(gFront, want) {
			return fmt.Sprintf("Explore(%d) frontier %v != per-node-frontier explore %v", m, gFront, want)
		}
		wMin, wFront, wOrder, wPeak := refExplore(tr, m)
		if gMin != wMin || gPeak != wPeak || !reflect.DeepEqual(gFront, wFront) || !reflect.DeepEqual(gOrder, wOrder) {
			return fmt.Sprintf("Explore(%d) = (%d, %v, %v, %d), reference (%d, %v, %v, %d)",
				m, gMin, gFront, gOrder, gPeak, wMin, wFront, wOrder, wPeak)
		}
		gOrd, gErr := TraversalWithin(tr, m)
		wOrd, wErr := refTraversalWithin(tr, m)
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) || !reflect.DeepEqual(gOrd, wOrd) {
			return fmt.Sprintf("TraversalWithin(%d) = (%v, %v), reference (%v, %v)", m, gOrd, gErr, wOrd, wErr)
		}
	}
	return ""
}

// The shared-traversal-buffer explore must be bit-identical to the
// per-level-slice reference: same memories, orders, frontiers, peaks,
// errors and call counts on random trees of every attachment kind, on
// paths and on caterpillars.
func TestMinMemMatchesReference(t *testing.T) {
	trees := 0
	check := func(name string, tr *tree.Tree) {
		t.Helper()
		trees++
		if msg := minMemDisagreement(tr); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, nodes := range []int{1, 2, 5, 17, 60, 150} {
			check(fmt.Sprintf("random seed %d nodes %d", seed, nodes),
				randomTree(seed*131+int64(nodes), nodes, tree.AttachKind(seed%3)))
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 30; i++ {
		p := 1 + rng.Intn(250)
		check(fmt.Sprintf("path %d (p=%d)", i, p), randomPath(rng, p))
		check(fmt.Sprintf("caterpillar %d (spine %d)", i, p), randomCaterpillar(rng, p))
	}
	if trees < 150 {
		t.Fatalf("differential corpus has %d trees, want ≥ 150", trees)
	}
}

// FuzzMinMemVsReference builds a tree from the fuzzed seed — a random
// tree of one of the three attachment kinds (kind 0–2), a path (3) or a
// caterpillar (4) — and fails on any difference between the MinMem family
// and the preserved reference.
func FuzzMinMemVsReference(f *testing.F) {
	f.Add(int64(1), uint16(12), uint8(0))
	f.Add(int64(7), uint16(40), uint8(1))
	f.Add(int64(42), uint16(90), uint8(2))
	f.Add(int64(3), uint16(150), uint8(3))
	f.Add(int64(9), uint16(120), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + int(nodes%200)
		var tr *tree.Tree
		switch kind % 5 {
		case 3:
			tr = randomPath(rng, p)
		case 4:
			tr = randomCaterpillar(rng, p)
		default:
			var err error
			tr, err = tree.Random(rng, tree.RandomOptions{Nodes: p, MaxF: 20, MaxN: 8, Attach: tree.AttachKind(kind % 5)})
			if err != nil {
				t.Fatal(err)
			}
		}
		if msg := minMemDisagreement(tr); msg != "" {
			t.Fatalf("%s\ntree (p=%d):\n  parent=%v\n  f=%v\n  n=%v",
				msg, tr.Len(), tr.ParentVector(), tr.FVector(), tr.NVector())
		}
	})
}
