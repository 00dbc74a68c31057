package tree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sampleTree builds the 8-node tree used across tests:
//
//	      0 (root, f=0,n=1)
//	     / \
//	    1   2
//	   / \   \
//	  3   4   5
//	 /         \
//	6           7
func sampleTree(t *testing.T) *Tree {
	t.Helper()
	parent := []int{NoParent, 0, 0, 1, 1, 2, 3, 5}
	f := []int64{0, 4, 2, 3, 1, 5, 2, 6}
	n := []int64{1, 2, 0, 1, 3, 2, 1, 0}
	tr, err := New(parent, f, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		parent []int
		f, n   []int64
	}{
		{"empty", nil, nil, nil},
		{"two roots", []int{-1, -1}, []int64{1, 1}, []int64{0, 0}},
		{"no root", []int{1, 0}, []int64{1, 1}, []int64{0, 0}},
		{"self parent", []int{-1, 1}, []int64{1, 1}, []int64{0, 0}},
		{"out of range", []int{-1, 5}, []int64{1, 1}, []int64{0, 0}},
		{"cycle", []int{-1, 2, 1}, []int64{1, 1, 1}, []int64{0, 0, 0}},
		{"length mismatch", []int{-1, 0}, []int64{1}, []int64{0, 0}},
		{"negative f", []int{-1, 0}, []int64{1, -2}, []int64{0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.parent, c.f, c.n); err == nil {
				t.Fatalf("New(%v) succeeded, want error", c.parent)
			}
		})
	}
}

func TestBasicAccessors(t *testing.T) {
	tr := sampleTree(t)
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Root() != 0 {
		t.Fatalf("Root = %d, want 0", tr.Root())
	}
	if tr.Parent(7) != 5 || tr.Parent(0) != NoParent {
		t.Fatalf("bad parents: Parent(7)=%d Parent(0)=%d", tr.Parent(7), tr.Parent(0))
	}
	if got := tr.Children(1, nil); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("Children(1) = %v, want [3 4]", got)
	}
	if tr.NumChildren(0) != 2 || tr.NumChildren(6) != 0 {
		t.Fatalf("bad child counts")
	}
	if !tr.IsLeaf(6) || tr.IsLeaf(1) {
		t.Fatalf("bad IsLeaf")
	}
	if tr.Child(0, 1) != 2 {
		t.Fatalf("Child(0,1) = %d, want 2", tr.Child(0, 1))
	}
}

func TestMemReq(t *testing.T) {
	tr := sampleTree(t)
	// MemReq(1) = f(1)+n(1)+f(3)+f(4) = 4+2+3+1 = 10
	if got := tr.MemReq(1); got != 10 {
		t.Fatalf("MemReq(1) = %d, want 10", got)
	}
	// MemReq(6) = 2+1 = 3 (leaf)
	if got := tr.MemReq(6); got != 3 {
		t.Fatalf("MemReq(6) = %d, want 3", got)
	}
	// MemReq(5) = 5+2+6 = 13, the maximum
	if got := tr.MaxMemReq(); got != 13 {
		t.Fatalf("MaxMemReq = %d, want 13", got)
	}
	if got := tr.ChildFileSum(0); got != 6 {
		t.Fatalf("ChildFileSum(0) = %d, want 6", got)
	}
	if got := tr.TotalF(); got != 23 {
		t.Fatalf("TotalF = %d, want 23", got)
	}
}

func TestOrders(t *testing.T) {
	tr := sampleTree(t)
	td := tr.TopDown()
	if err := tr.IsTopDownOrder(td); err != nil {
		t.Fatalf("TopDown not a valid top-down order: %v", err)
	}
	po := tr.Postorder()
	if err := tr.IsBottomUpOrder(po); err != nil {
		t.Fatalf("Postorder not a valid bottom-up order: %v", err)
	}
	if want := []int{6, 3, 4, 1, 7, 5, 2, 0}; !reflect.DeepEqual(po, want) {
		t.Fatalf("Postorder = %v, want %v", po, want)
	}
	if err := tr.IsTopDownOrder(ReverseOrder(po)); err != nil {
		t.Fatalf("reversed postorder should be top-down feasible: %v", err)
	}
	// Error cases.
	if err := tr.IsTopDownOrder([]int{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	if err := tr.IsTopDownOrder([]int{0, 1, 2, 3, 4, 5, 6, 6}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if err := tr.IsTopDownOrder([]int{1, 0, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Fatal("child-before-parent order accepted")
	}
}

func TestDepthAndLeaves(t *testing.T) {
	tr := sampleTree(t)
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth())
	}
	var leaves []int
	for v := 0; v < tr.Len(); v++ {
		if tr.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	if !reflect.DeepEqual(leaves, []int{4, 6, 7}) {
		t.Fatalf("leaves = %v, want [4 6 7]", leaves)
	}
}

func TestChainBuilder(t *testing.T) {
	ch, err := Chain([]int64{1, 2, 3}, []int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Len() != 3 || ch.Parent(2) != 1 || ch.Parent(0) != NoParent {
		t.Fatalf("bad chain structure")
	}
	if _, err := Chain(nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := Chain([]int64{1}, []int64{0, 0}); err == nil {
		t.Fatal("mismatched chain accepted")
	}
}

func TestHarpoonStructure(t *testing.T) {
	h, err := NestedHarpoon(3, 1, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 root + 3 branches × 3 nodes.
	if h.Len() != 10 {
		t.Fatalf("harpoon has %d nodes, want 10", h.Len())
	}
	if h.NumChildren(h.Root()) != 3 {
		t.Fatalf("harpoon root has %d children, want 3", h.NumChildren(h.Root()))
	}
	// Each branch: M/b=10, eps=1, M=30.
	for k := 0; k < 3; k++ {
		x := h.Child(h.Root(), k)
		if h.F(x) != 10 {
			t.Fatalf("branch head file = %d, want 10", h.F(x))
		}
		y := h.Child(x, 0)
		if h.F(y) != 1 {
			t.Fatalf("branch mid file = %d, want 1", h.F(y))
		}
		z := h.Child(y, 0)
		if h.F(z) != 30 || !h.IsLeaf(z) {
			t.Fatalf("branch leaf file = %d (leaf=%v), want 30 leaf", h.F(z), h.IsLeaf(z))
		}
	}
	// MaxMemReq is the leaf requirement f=30 (+ n=0) or the mid node eps+30.
	if got := h.MaxMemReq(); got != 31 {
		t.Fatalf("harpoon MaxMemReq = %d, want 31", got)
	}
}

func TestNestedHarpoonSizeAndErrors(t *testing.T) {
	h, err := NestedHarpoon(2, 3, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Level L tree size: s(1)=1+3b; s(L)=1+b*(2+1+s(L-1)-? ) — verify recursively.
	var size func(l int) int
	size = func(l int) int {
		if l == 1 {
			return 1 + 3*2
		}
		return 1 + 2*(2+size(l-1))
	}
	if h.Len() != size(3) {
		t.Fatalf("nested harpoon has %d nodes, want %d", h.Len(), size(3))
	}
	for _, bad := range []struct {
		b, l   int
		m, eps int64
	}{
		{1, 1, 10, 1}, {2, 0, 10, 1}, {2, 1, 0, 1}, {2, 1, 10, 0}, {3, 1, 10, 1},
	} {
		if _, err := NestedHarpoon(bad.b, bad.l, bad.m, bad.eps); err == nil {
			t.Fatalf("NestedHarpoon(%+v) accepted", bad)
		}
	}
}

func TestTwoPartitionGadget(t *testing.T) {
	inst, err := NewTwoPartition([]int64{3, 5, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Tree
	if tr.Len() != 2*4+3 {
		t.Fatalf("gadget has %d nodes, want 11", tr.Len())
	}
	if inst.Memory != 28 || inst.IOBound != 7 {
		t.Fatalf("M=%d IO=%d, want 28, 7", inst.Memory, inst.IOBound)
	}
	if got := tr.MemReq(inst.Root); got != inst.Memory {
		t.Fatalf("MemReq(root) = %d, want %d", got, inst.Memory)
	}
	if got := tr.MaxMemReq(); got != inst.Memory {
		t.Fatalf("MaxMemReq = %d, want %d (root must dominate)", got, inst.Memory)
	}
	if tr.F(inst.Big) != 14 || tr.F(inst.BigOut) != 7 {
		t.Fatalf("big branch files = %d, %d; want 14, 7", tr.F(inst.Big), tr.F(inst.BigOut))
	}
	for i, it := range inst.Items {
		if tr.F(inst.Outs[i]) != 14 {
			t.Fatalf("out file %d = %d, want 14", i, tr.F(inst.Outs[i]))
		}
		if tr.Parent(inst.Outs[i]) != it {
			t.Fatalf("out %d not child of item %d", inst.Outs[i], it)
		}
	}
	// Error cases.
	if _, err := NewTwoPartition(nil); err == nil {
		t.Fatal("empty instance accepted")
	}
	if _, err := NewTwoPartition([]int64{1, 2}); err == nil {
		t.Fatal("odd-sum instance accepted")
	}
	if _, err := NewTwoPartition([]int64{2, -2}); err == nil {
		t.Fatal("negative item accepted")
	}
}

func TestFromReplacementModel(t *testing.T) {
	// Figure 1 example: root A with children B, C, D of file sizes 1, 1, 2;
	// C has children E (1), F (3); F has children G (1), H (2).
	// Node names → ids: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7.
	parent := []int{NoParent, 0, 0, 0, 2, 2, 5, 5}
	f := []int64{1, 1, 1, 2, 1, 3, 1, 2}
	tr, err := FromReplacementModel(parent, f)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 lists the resulting execution files: A:-1, B:0, C:-1, D:0,
	// E:0, F:-2 (hmm figure shows -2 on F), G:0, H:0 — derived from
	// n_i = −min(f_i, Σ children f).
	wantN := []int64{-1, 0, -1, 0, 0, -3, 0, 0}
	// A: min(1, 1+1+2)=1 → −1; C: min(1, 1+3)=1 → −1; F: min(3, 1+2)=3 → −3.
	for i, w := range wantN {
		if tr.N(i) != w {
			t.Fatalf("N(%d) = %d, want %d", i, tr.N(i), w)
		}
	}
	// MemReq must equal max(f_i, Σ children f) for every node.
	for i := 0; i < tr.Len(); i++ {
		want := tr.F(i)
		if cs := tr.ChildFileSum(i); cs > want {
			want = cs
		}
		if got := tr.MemReq(i); got != want {
			t.Fatalf("MemReq(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestFromLiuModel(t *testing.T) {
	// Figure 2 example. Ids: x=0, b=1, c=2, d=3, e=4 (child of d),
	// f=5 (child of b), g=6 (child of c), h=7 (child of c).
	nodes := []LiuModelNode{
		{Parent: NoParent, NPlus: 1, NMinus: 3}, // hmm placeholder, replaced below
	}
	_ = nodes
	// Build from the figure's values:
	// x: n_{x+}=1? Figure: x+ 1, x− 3... The figure lists per node (plus,minus):
	// x:(1,3)? Actually labels: x+ 1, x− (unlabeled root output).
	// We instead verify the transformation identities on a custom instance.
	in := []LiuModelNode{
		{Parent: NoParent, NPlus: 9, NMinus: 3},
		{Parent: 0, NPlus: 5, NMinus: 2},
		{Parent: 0, NPlus: 6, NMinus: 2},
		{Parent: 1, NPlus: 4, NMinus: 1},
		{Parent: 1, NPlus: 3, NMinus: 1},
	}
	tr, err := FromLiuModel(in)
	if err != nil {
		t.Fatal(err)
	}
	// Identity 1: f[x] = n_{x−}.
	for i, nd := range in {
		if tr.F(i) != nd.NMinus {
			t.Fatalf("F(%d) = %d, want %d", i, tr.F(i), nd.NMinus)
		}
	}
	// Identity 2: MemReq(x) = n_{x+}.
	for i, nd := range in {
		if got := tr.MemReq(i); got != nd.NPlus {
			t.Fatalf("MemReq(%d) = %d, want %d", i, got, nd.NPlus)
		}
	}
	// Error case: negative n_minus.
	if _, err := FromLiuModel([]LiuModelNode{{Parent: NoParent, NPlus: 1, NMinus: -1}}); err == nil {
		t.Fatal("negative NMinus accepted")
	}
}

func TestRandomTrees(t *testing.T) {
	for _, kind := range []AttachKind{AttachUniform, AttachPreferential, AttachChainy} {
		rng := rand.New(rand.NewSource(42))
		tr, err := Random(rng, RandomOptions{Nodes: 200, MaxF: 50, MaxN: 10, Attach: kind})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 200 {
			t.Fatalf("random tree has %d nodes", tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if tr.F(i) < 1 || tr.F(i) > 50 {
				t.Fatalf("f out of range: %d", tr.F(i))
			}
			if tr.N(i) < 0 || tr.N(i) > 10 {
				t.Fatalf("n out of range: %d", tr.N(i))
			}
		}
	}
	// Determinism.
	a, _ := Random(rand.New(rand.NewSource(7)), RandomOptions{Nodes: 64, MaxF: 9, MaxN: 3})
	b, _ := Random(rand.New(rand.NewSource(7)), RandomOptions{Nodes: 64, MaxF: 9, MaxN: 3})
	if !reflect.DeepEqual(a.ParentVector(), b.ParentVector()) || !reflect.DeepEqual(a.FVector(), b.FVector()) {
		t.Fatal("random generation is not deterministic for a fixed seed")
	}
	// Error cases.
	rng := rand.New(rand.NewSource(1))
	if _, err := Random(rng, RandomOptions{Nodes: 0, MaxF: 1}); err == nil {
		t.Fatal("zero-node tree accepted")
	}
	if _, err := Random(rng, RandomOptions{Nodes: 1, MaxF: 0}); err == nil {
		t.Fatal("MaxF=0 accepted")
	}
	if _, err := Random(rng, RandomOptions{Nodes: 1, MaxF: 1, MaxN: -1}); err == nil {
		t.Fatal("MaxN<0 accepted")
	}
}

func TestRandomizeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base, err := Random(rng, RandomOptions{Nodes: 600, MaxF: 5, MaxN: 5})
	if err != nil {
		t.Fatal(err)
	}
	rw := RandomizeWeights(base, rng)
	if !reflect.DeepEqual(rw.ParentVector(), base.ParentVector()) {
		t.Fatal("RandomizeWeights changed the shape")
	}
	for i := 0; i < rw.Len(); i++ {
		if rw.F(i) < 1 || rw.F(i) > 600 {
			t.Fatalf("f out of range: %d", rw.F(i))
		}
		if rw.N(i) < 1 || rw.N(i) > 600/500+1 {
			t.Fatalf("n out of range: %d", rw.N(i))
		}
	}
}

func TestRoundTripIO(t *testing.T) {
	tr := sampleTree(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ParentVector(), tr.ParentVector()) ||
		!reflect.DeepEqual(back.FVector(), tr.FVector()) ||
		!reflect.DeepEqual(back.NVector(), tr.NVector()) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                          // no header
		"p 0\n",                     // bad count
		"p x\n",                     // bad count
		"p 1\np 1\n0 -1 1 0\n",      // duplicate header
		"0 -1 1 0\n",                // node before header
		"p 1\n0 -1 1\n",             // short line
		"p 1\n7 -1 1 0\n",           // id out of range
		"p 1\n0 -1 1 0\n0 -1 1 0\n", // duplicate after full? (dup id)
		"p 2\n0 -1 1 0\n",           // missing node
		"p 1\n0 z 1 0\n",            // bad parent
		"p 1\n0 -1 z 0\n",           // bad f
		"p 1\n0 -1 1 z\n",           // bad n
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("Read(%q) succeeded, want error", c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# a tree\n\np 2\n0 -1 3 1\n1 0 2 0\n"
	tr, err := Read(bytes.NewBufferString(ok))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.F(0) != 3 {
		t.Fatal("comment parse mismatch")
	}
}

// Property: Read(Write(t)) == t on random trees.
func TestQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64, p uint8) bool {
		nodes := int(p%60) + 1
		rng := rand.New(rand.NewSource(seed))
		tr, err := Random(rng, RandomOptions{Nodes: nodes, MaxF: 100, MaxN: 20})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.ParentVector(), tr.ParentVector()) &&
			reflect.DeepEqual(back.FVector(), tr.FVector()) &&
			reflect.DeepEqual(back.NVector(), tr.NVector())
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a postorder is always a valid bottom-up order, and its reverse a
// valid top-down order.
func TestQuickOrderDuality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64, p uint8, kind uint8) bool {
		nodes := int(p%100) + 1
		rng := rand.New(rand.NewSource(seed))
		tr, err := Random(rng, RandomOptions{
			Nodes: nodes, MaxF: 30, MaxN: 10, Attach: AttachKind(kind % 3),
		})
		if err != nil {
			return false
		}
		po := tr.Postorder()
		if tr.IsBottomUpOrder(po) != nil {
			return false
		}
		if tr.IsTopDownOrder(ReverseOrder(po)) != nil {
			return false
		}
		td := tr.TopDown()
		return tr.IsTopDownOrder(td) == nil && tr.IsBottomUpOrder(ReverseOrder(td)) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax64(t *testing.T) {
	if min64(2, 3) != 2 || min64(3, 2) != 2 || max64(2, 3) != 3 || max64(3, 2) != 3 {
		t.Fatal("min64/max64 broken")
	}
}
