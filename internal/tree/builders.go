package tree

import "fmt"

// builder incrementally assembles a tree from parent links.
type builder struct {
	parent []int
	f, n   []int64
}

func (b *builder) add(parent int, f, n int64) int {
	id := len(b.parent)
	b.parent = append(b.parent, parent)
	b.f = append(b.f, f)
	b.n = append(b.n, n)
	return id
}

func (b *builder) build() *Tree {
	t, err := New(b.parent, b.f, b.n)
	if err != nil {
		panic(fmt.Sprintf("tree: internal builder produced invalid tree: %v", err))
	}
	return t
}

// Chain returns a path of p nodes (root at the top) whose node i from the
// root has input file f[i] and execution file n[i]. Useful for tests.
func Chain(f, n []int64) (*Tree, error) {
	if len(f) != len(n) || len(f) == 0 {
		return nil, fmt.Errorf("tree: chain needs equal non-empty size vectors")
	}
	parent := make([]int, len(f))
	parent[0] = NoParent
	for i := 1; i < len(f); i++ {
		parent[i] = i - 1
	}
	return New(parent, f, n)
}

// NestedHarpoon returns the L-level recursive harpoon of Figure 3(b).
// NestedHarpoon(b, 1, M, eps) is the single-level harpoon of Figure 3(a)
// used in the proof of Theorem 1: a zero-weight root with b identical
// branches, each a chain root→x (file M/b) →y (file eps) →z (file M,
// leaf), all execution files zero. M must be divisible by b so that the
// branch file sizes are exact. Each deeper level replaces every size-M leaf
// with the root of another harpoon (reached through an eps-file edge).
//
// Best postorder:   M + eps + L·(b−1)·M/b
// Optimal traversal: M + eps + L·(b−1)·eps
//
// so the postorder-to-optimal ratio grows without bound as L grows and eps
// shrinks (Theorem 1).
func NestedHarpoon(b, levels int, m, eps int64) (*Tree, error) {
	if b < 2 {
		return nil, fmt.Errorf("tree: harpoon needs b ≥ 2 branches, got %d", b)
	}
	if levels < 1 {
		return nil, fmt.Errorf("tree: harpoon needs ≥ 1 level, got %d", levels)
	}
	if m <= 0 || eps <= 0 {
		return nil, fmt.Errorf("tree: harpoon needs positive M and eps, got M=%d eps=%d", m, eps)
	}
	if m%int64(b) != 0 {
		return nil, fmt.Errorf("tree: harpoon needs b | M, got M=%d b=%d", m, b)
	}
	bl := &builder{}
	root := bl.add(NoParent, 0, 0)
	var attach func(parentID, level int)
	attach = func(parentID, level int) {
		for i := 0; i < b; i++ {
			x := bl.add(parentID, m/int64(b), 0)
			y := bl.add(x, eps, 0)
			if level == 1 {
				bl.add(y, m, 0) // leaf z
			} else {
				sub := bl.add(y, eps, 0) // root of the next harpoon level
				attach(sub, level-1)
			}
		}
	}
	attach(root, levels)
	return bl.build(), nil
}

// HarpoonPostOrderMemory returns the memory needed by the best postorder
// traversal of NestedHarpoon(b, levels, m, eps): M + eps + L·(b−1)·M/b.
func HarpoonPostOrderMemory(b, levels int, m, eps int64) int64 {
	return m + eps + int64(levels)*int64(b-1)*(m/int64(b))
}

// HarpoonOptimalMemory returns the memory needed by the optimal traversal of
// NestedHarpoon(b, levels, m, eps): M + eps + L·(b−1)·eps.
func HarpoonOptimalMemory(b, levels int, m, eps int64) int64 {
	return m + eps + int64(levels)*int64(b-1)*eps
}

// TwoPartitionInstance is the MinIO NP-hardness gadget of Theorem 2
// (Figure 4), built from a 2-Partition instance {a_1, …, a_n} with
// S = Σ a_i.
type TwoPartitionInstance struct {
	Tree *Tree
	// Memory is the main-memory size of the reduction, M = 2S.
	Memory int64
	// IOBound is the decision threshold: the instance admits an out-of-core
	// traversal with I/O volume ≤ IOBound = S/2 if and only if the
	// 2-Partition instance has a solution.
	IOBound int64
	// Root, Big, BigOut identify the special nodes; Items[i] and Outs[i] are
	// the T_i / Tout_i pairs carrying a_i.
	Root, Big, BigOut int
	Items, Outs       []int
}

// NewTwoPartition builds the reduction tree for the given positive integers.
// The sum S = Σ a_i must be even (otherwise 2-Partition is trivially
// infeasible and the constructor rejects the input to keep file sizes
// integral).
//
// Structure (out-tree, all execution files zero):
//
//	root T_in (f=0) has n+1 children:
//	  T_i   (f = a_i) → Tout_i   (f = S,   leaf)   for each i
//	  T_big (f = S)   → Tout_big (f = S/2, leaf)
//
// MemReq(T_in) = Σ a_i + S = 2S = M is the largest requirement of any node.
func NewTwoPartition(a []int64) (*TwoPartitionInstance, error) {
	if len(a) == 0 {
		return nil, fmt.Errorf("tree: empty 2-partition instance")
	}
	var s int64
	for i, v := range a {
		if v <= 0 {
			return nil, fmt.Errorf("tree: 2-partition item %d is %d; need positive", i, v)
		}
		s += v
	}
	if s%2 != 0 {
		return nil, fmt.Errorf("tree: 2-partition sum %d is odd", s)
	}
	bl := &builder{}
	inst := &TwoPartitionInstance{Memory: 2 * s, IOBound: s / 2}
	inst.Root = bl.add(NoParent, 0, 0)
	for _, v := range a {
		ti := bl.add(inst.Root, v, 0)
		to := bl.add(ti, s, 0)
		inst.Items = append(inst.Items, ti)
		inst.Outs = append(inst.Outs, to)
	}
	inst.Big = bl.add(inst.Root, s, 0)
	inst.BigOut = bl.add(inst.Big, s/2, 0)
	inst.Tree = bl.build()
	return inst, nil
}
