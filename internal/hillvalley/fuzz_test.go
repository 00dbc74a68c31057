package hillvalley

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tree"
)

// kernelDisagrees reports whether the kernel disagrees with the seed
// reference or with the naive replay simulator on tr, with a description
// of the first disagreement found.
func kernelDisagrees(tr *tree.Tree) (string, bool) {
	var k Kernel
	gotProf := k.Profile(tr, nil)
	if wantProf := refProfile(tr); !reflect.DeepEqual(gotProf, wantProf) {
		return fmt.Sprintf("profile %v != reference %v", gotProf, wantProf), true
	}
	gotMem, gotOrder := k.Exact(tr, nil)
	wantMem, wantOrder := refExact(tr)
	if gotMem != wantMem {
		return fmt.Sprintf("memory %d != reference %d", gotMem, wantMem), true
	}
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		return fmt.Sprintf("order %v != reference %v", gotOrder, wantOrder), true
	}
	if err := tr.IsBottomUpOrder(gotOrder); err != nil {
		return fmt.Sprintf("invalid order: %v", err), true
	}
	// Naive reference simulator: the replayed peak must equal the claimed
	// optimum, and the profile's first hill must agree.
	if peak := refPeakBottomUp(tr, gotOrder); peak != gotMem {
		return fmt.Sprintf("replayed peak %d != memory %d", peak, gotMem), true
	}
	if gotProf[0].Hill != gotMem {
		return fmt.Sprintf("first hill %d != memory %d", gotProf[0].Hill, gotMem), true
	}
	return "", false
}

// shrinkTree greedily minimizes a disagreeing tree: repeatedly try
// deleting a leaf and shrinking weights toward (f=1, n=0), keeping any
// mutation under which the disagreement persists, until a fixpoint.
func shrinkTree(tr *tree.Tree, disagrees func(*tree.Tree) bool) *tree.Tree {
	for changed := true; changed; {
		changed = false
		// Leaf deletion: drop node v, renumbering the survivors.
		for v := 0; v < tr.Len() && tr.Len() > 1; v++ {
			if !tr.IsLeaf(v) {
				continue
			}
			parent, f, n := tr.ParentVector(), tr.FVector(), tr.NVector()
			np := append(parent[:v], parent[v+1:]...)
			nf := append(f[:v], f[v+1:]...)
			nn := append(n[:v], n[v+1:]...)
			for i, p := range np {
				if p > v {
					np[i] = p - 1
				}
			}
			cand, err := tree.New(np, nf, nn)
			if err == nil && disagrees(cand) {
				tr = cand
				changed = true
				v--
			}
		}
		// Weight shrinking: halve f toward 1 and n toward 0.
		for v := 0; v < tr.Len(); v++ {
			f, n := tr.FVector(), tr.NVector()
			if next := f[v] / 2; next >= 1 && next != f[v] {
				f[v] = next
				if cand, err := tr.WithWeights(f, n); err == nil && disagrees(cand) {
					tr, changed = cand, true
				} else {
					f = tr.FVector()
				}
			}
			if next := n[v] / 2; next != n[v] {
				n[v] = next
				if cand, err := tr.WithWeights(f, n); err == nil && disagrees(cand) {
					tr, changed = cand, true
				}
			}
		}
	}
	return tr
}

// FuzzKernelVsReference generates a tree from the fuzzed seed — a random
// tree of one of the three attachment kinds (kind 0–2), a path (3) or a
// caterpillar (4) — runs the refactored kernel against the seed reference
// implementation and the naive replay simulator, and on any disagreement
// shrinks the tree to a minimal reproducer before failing.
func FuzzKernelVsReference(f *testing.F) {
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
			tr = randomPath(t, rng, p)
		case 4:
			tr = randomCaterpillar(t, rng, p)
		default:
			var err error
			tr, err = tree.Random(rng, tree.RandomOptions{
				Nodes:  p,
				MaxF:   15,
				MaxN:   6,
				Attach: tree.AttachKind(kind % 5),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, bad := kernelDisagrees(tr); !bad {
			return
		}
		min := shrinkTree(tr, func(c *tree.Tree) bool {
			_, b := kernelDisagrees(c)
			return b
		})
		msg, _ := kernelDisagrees(min)
		t.Fatalf("kernel disagrees with reference: %s\nminimal tree (p=%d):\n  parent=%v\n  f=%v\n  n=%v",
			msg, min.Len(), min.ParentVector(), min.FVector(), min.NVector())
	})
}

// The shrinker itself must preserve disagreement-free trees and terminate;
// exercise it on a synthetic "disagreement" so a real failure report is
// minimal. (A size-based pseudo-bug: trees with ≥ 4 nodes "disagree".)
func TestShrinkerFindsMinimalTree(t *testing.T) {
	tr := randomTree(t, 5, 40)
	min := shrinkTree(tr, func(c *tree.Tree) bool { return c.Len() >= 4 })
	if min.Len() != 4 {
		t.Fatalf("shrinker stopped at %d nodes, want 4", min.Len())
	}
	for v := 0; v < min.Len(); v++ {
		if min.F(v) != 1 || min.N(v) != 0 {
			t.Fatalf("shrinker left weights f=%d n=%d at node %d", min.F(v), min.N(v), v)
		}
	}
}
