package traversal

import (
	"cmp"
	"slices"

	"repro/internal/tree"
)

// BestPostOrder computes Liu's optimal postorder traversal (Liu 1986, and
// the PostOrder algorithm of the paper): among all traversals in which every
// subtree is processed contiguously, it finds one of minimum peak memory in
// O(p log p) time.
//
// The returned order is top-down (each subtree contiguous, its root first);
// its reverse is the familiar bottom-up multifrontal postorder. The rule:
// at every node, child subtrees are processed in non-increasing order of
// (subtree peak − retained file size), which an exchange argument shows is
// optimal among postorders.
func BestPostOrder(t *tree.Tree) Result {
	p := t.Len()
	peak := make([]int64, p) // peak[i]: best postorder peak of subtree i
	// Process bottom-up so children peaks are known at the parent.
	post := t.Postorder()
	// kids holds every node's children, sorted for the optimal postorder,
	// in one arena laid out like the tree's CSR: node v's children are
	// kids[start[v]:start[v+1]].
	start := make([]int32, p+1)
	for v := 0; v < p; v++ {
		start[v+1] = start[v] + int32(t.NumChildren(v))
	}
	kids := make([]int32, start[p])
	for _, v := range post {
		ks := kids[start[v]:start[v+1]]
		if len(ks) == 0 {
			peak[v] = t.MemReq(v)
			continue
		}
		for k := range ks {
			ks[k] = int32(t.Child(v, k))
		}
		// Non-increasing peak − file; a stable sort with this comparator
		// has exactly one result.
		slices.SortStableFunc(ks, func(a, b int32) int {
			return cmp.Compare(peak[b]-t.F(int(b)), peak[a]-t.F(int(a)))
		})
		// Bottom-up peak: while processing the j-th subtree, the files of
		// the j−1 finished subtrees are resident; the node's own assembly
		// MemReq(v) comes last with all children files resident.
		var resident, best int64
		for _, c := range ks {
			if cand := resident + peak[c]; cand > best {
				best = cand
			}
			resident += t.F(int(c))
		}
		best = maxInt64(best, t.MemReq(v))
		peak[v] = best
	}
	// Emit the bottom-up postorder following kids, then reverse it to
	// the top-down orientation.
	order := make([]int, 0, p)
	type frame struct {
		node int32
		next int32
	}
	stack := []frame{{int32(t.Root()), 0}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		ks := kids[start[fr.node]:start[fr.node+1]]
		if int(fr.next) < len(ks) {
			c := ks[fr.next]
			fr.next++
			stack = append(stack, frame{c, 0})
			continue
		}
		order = append(order, int(fr.node))
		stack = stack[:len(stack)-1]
	}
	return Result{Memory: peak[t.Root()], Order: tree.ReverseOrder(order)}
}

// NaturalPostOrder returns the peak memory of the postorder that follows the
// stored child order of the tree (no reordering). It is the baseline a
// solver would get without Liu's child-sorting rule.
func NaturalPostOrder(t *tree.Tree) Result {
	order := t.Postorder()
	topDown := tree.ReverseOrder(order)
	peak, err := Peak(t, topDown)
	if err != nil {
		// t.Postorder always yields a valid traversal.
		panic(err)
	}
	return Result{Memory: peak, Order: topDown}
}
