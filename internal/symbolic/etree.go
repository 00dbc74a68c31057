// Package symbolic implements the symbolic-factorization stage of the
// multifrontal pipeline: elimination trees (Liu's algorithm with path
// compression), column counts of the Cholesky factor L, and the relaxed
// node amalgamation that turns an elimination tree into the assembly tree
// whose traversal the paper optimizes. Node and edge weights follow
// Section VI-B exactly: a node amalgamating η columns whose top column has
// µ factor nonzeros weighs η² + 2η(µ−1), and its contribution block
// (edge to the parent) weighs (µ−1)².
package symbolic

import (
	"fmt"

	"repro/internal/sparse"
)

// NoParent marks elimination-tree roots.
const NoParent = -1

// EliminationTree computes the elimination-tree parent vector of a
// symmetric pattern with full diagonal (Liu's algorithm, using ancestor
// path compression; O(nnz·α)). Disconnected matrices yield a forest with
// several NoParent roots.
func EliminationTree(m *sparse.Matrix) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("symbolic: elimination tree needs a symmetric pattern")
	}
	if !m.HasFullDiagonal() {
		return nil, fmt.Errorf("symbolic: elimination tree needs a full diagonal")
	}
	n := m.N()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = NoParent
		ancestor[j] = NoParent
		for _, ir := range m.Col(j) {
			i := int(ir)
			if i >= j {
				continue // lower entries handled by symmetry
			}
			// Walk from i to the root of its current subtree, compressing
			// the ancestor path onto j.
			r := i
			for ancestor[r] != NoParent && ancestor[r] != j {
				next := ancestor[r]
				ancestor[r] = j
				r = next
			}
			if ancestor[r] == NoParent {
				ancestor[r] = j
				parent[r] = j
			}
		}
	}
	return parent, nil
}

// ColumnCounts returns the number of nonzeros of every column of the
// Cholesky factor L (diagonal included). parent must be the elimination
// tree of m. It runs the Gilbert–Ng–Peyton skeleton algorithm in
// O(nnz·α(nnz,n)) time: a postorder pass finds each column's first
// descendant, then every entry a_ij (i > j) is classified as a skeleton
// entry — j a leaf of row i's subtree — or a duplicate via maxfirst; leaf
// overlaps are charged to the least common ancestor found by a
// path-compressed union-find, and the resulting per-column deltas are
// summed up the tree. Unlike the row-subtree traversal it replaces (kept
// as columnCountsNaive for differential tests), the cost is proportional
// to nnz(A), not to |L|.
func ColumnCounts(m *sparse.Matrix, parent []int) ([]int64, error) {
	n := m.N()
	if len(parent) != n {
		return nil, fmt.Errorf("symbolic: parent vector has %d entries, want %d", len(parent), n)
	}
	for j, p := range parent {
		if p != NoParent && (p <= j || p >= n) {
			return nil, fmt.Errorf("symbolic: parent[%d] = %d is not a valid etree parent", j, p)
		}
	}
	return columnCounts(m, parent, EtreePostorder(parent)), nil
}

// columnCounts is ColumnCounts over a validated parent vector and its
// postorder.
func columnCounts(m *sparse.Matrix, parent, post []int) []int64 {
	n := len(parent)
	counts := make([]int64, n)
	work := make([]int32, 4*n)
	first, maxfirst, prevleaf, ancestor := work[:n], work[n:2*n], work[2*n:3*n], work[3*n:]
	for i := int32(0); i < int32(n); i++ {
		first[i], maxfirst[i], prevleaf[i] = -1, -1, -1
		ancestor[i] = i
	}
	// First descendants: first[j] = postorder index of j's earliest leaf.
	for k, j := range post {
		if first[j] == -1 {
			counts[j] = 1 // j is a leaf of the etree
		}
		for ; j != NoParent && first[j] == -1; j = parent[j] {
			first[j] = int32(k)
		}
	}
	for _, j := range post {
		if parent[j] != NoParent {
			counts[parent[j]]--
		}
		for _, ir := range m.Col(j) {
			i := int(ir)
			if i <= j {
				continue
			}
			q, kind := skeletonLeaf(int32(i), int32(j), first, maxfirst, prevleaf, ancestor)
			if kind >= 1 {
				counts[j]++ // a_ij is a skeleton entry
			}
			if kind == 2 {
				counts[q]-- // overlap with the previous leaf of row i
			}
		}
		if parent[j] != NoParent {
			ancestor[j] = int32(parent[j])
		}
	}
	// Sum deltas up the tree; parents have larger indices, so ascending
	// order finalizes every child before its parent.
	for j := 0; j < n; j++ {
		if p := parent[j]; p != NoParent {
			counts[p] += counts[j]
		}
	}
	return counts
}

// skeletonLeaf decides whether column j is a leaf of row i's subtree. kind
// is 0 if not a leaf, 1 for the first leaf of the subtree, 2 for a later
// leaf — in which case q is the least common ancestor of j and the
// previous leaf, found by path-compressed union-find.
func skeletonLeaf(i, j int32, first, maxfirst, prevleaf, ancestor []int32) (q int32, kind int) {
	if first[j] <= maxfirst[i] {
		return -1, 0 // j spans no new descendants of row i
	}
	maxfirst[i] = first[j]
	jprev := prevleaf[i]
	prevleaf[i] = j
	if jprev == -1 {
		return i, 1
	}
	for q = jprev; q != ancestor[q]; q = ancestor[q] {
	}
	for s := jprev; s != q; {
		s, ancestor[s] = ancestor[s], q
	}
	return q, 2
}

// columnCountsNaive is the seed implementation: row-subtree traversals in
// O(|L|) time, kept as the differential reference for ColumnCounts.
func columnCountsNaive(m *sparse.Matrix, parent []int) ([]int64, error) {
	n := m.N()
	if len(parent) != n {
		return nil, fmt.Errorf("symbolic: parent vector has %d entries, want %d", len(parent), n)
	}
	counts := make([]int64, n)
	for j := range counts {
		counts[j] = 1 // diagonal
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		mark[i] = i
		// Row i of L has nonzeros exactly on the row subtree: the union of
		// etree paths from each a_ij (j < i) up towards i.
		for _, jr := range m.Col(i) {
			j := int(jr)
			if j >= i {
				continue
			}
			for k := j; k != NoParent && mark[k] != i; k = parent[k] {
				counts[k]++ // ℓ_ik ≠ 0
				mark[k] = i
			}
		}
	}
	return counts, nil
}

// EtreePostorder returns a postorder of the elimination forest (children
// before parents, siblings in index order); forests are handled by
// visiting each root in turn. The child lists live in one flat bucketed
// array (see etreeChildren), so the whole computation is four fixed-size
// allocations regardless of tree shape.
func EtreePostorder(parent []int) []int {
	childPtr, child := etreeChildren(parent)
	return etreePostorder(parent, childPtr, child)
}

// etreePostorder is EtreePostorder over child lists already bucketed by
// etreeChildren.
func etreePostorder(parent []int, childPtr, child []int32) []int {
	n := len(parent)
	// cursor is each node's next-child position in the traversal.
	cursor := make([]int32, n)
	copy(cursor, childPtr[:n])
	out := make([]int, 0, n)
	stack := make([]int32, 0, 64)
	for r, p := range parent {
		if p != NoParent {
			continue
		}
		stack = append(stack, int32(r))
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			if cursor[node] < childPtr[node+1] {
				c := child[cursor[node]]
				cursor[node]++
				stack = append(stack, c)
				continue
			}
			out = append(out, int(node))
			stack = stack[:len(stack)-1]
		}
	}
	return out
}

// etreeChildren buckets the forest's child lists into one flat array: the
// children of j are child[childPtr[j]:childPtr[j+1]], in increasing index
// order. A counting pass and prefix sums leave childPtr[j] at the end of
// bucket j; filling with j descending moves each back to its start. Every
// parent must be NoParent or in [0, len(parent)).
func etreeChildren(parent []int) (childPtr, child []int32) {
	n := len(parent)
	childPtr = make([]int32, n+1)
	for _, p := range parent {
		if p != NoParent {
			childPtr[p]++
		}
	}
	for j := 1; j <= n; j++ {
		childPtr[j] += childPtr[j-1]
	}
	child = make([]int32, childPtr[n])
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != NoParent {
			childPtr[p]--
			child[childPtr[p]] = int32(j)
		}
	}
	return childPtr, child
}

// FactorNNZ returns Σ column counts = |L|.
func FactorNNZ(counts []int64) int64 {
	var s int64
	for _, c := range counts {
		s += c
	}
	return s
}
