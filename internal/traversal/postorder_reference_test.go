package traversal

import (
	"sort"

	"repro/internal/tree"
)

// This file preserves BestPostOrder with one child slice per node and
// sort.SliceStable verbatim, as the reference TestBestPostOrderMatchesReference
// pins the one-arena version against.

// refBestPostOrder is the reference BestPostOrder. It computes Liu's optimal postorder traversal (Liu 1986, and
// the PostOrder algorithm of the paper): among all traversals in which every
// subtree is processed contiguously, it finds one of minimum peak memory in
// O(p log p) time.
//
// The returned order is top-down (each subtree contiguous, its root first);
// its reverse is the familiar bottom-up multifrontal postorder. The rule:
// at every node, child subtrees are processed in non-increasing order of
// (subtree peak − retained file size), which an exchange argument shows is
// optimal among postorders.
func refBestPostOrder(t *tree.Tree) Result {
	p := t.Len()
	peak := make([]int64, p) // peak[i]: best postorder peak of subtree i
	// Process bottom-up so children peaks are known at the parent.
	post := t.Postorder()
	// childOrder[i] holds i's children sorted for the optimal postorder.
	childOrder := make([][]int32, p)
	var kidsBuf []int
	for _, v := range post {
		kidsBuf = t.Children(v, kidsBuf[:0])
		if len(kidsBuf) == 0 {
			peak[v] = t.MemReq(v)
			continue
		}
		kids := make([]int32, len(kidsBuf))
		for k, c := range kidsBuf {
			kids[k] = int32(c)
		}
		sort.SliceStable(kids, func(a, b int) bool {
			ca, cb := kids[a], kids[b]
			return peak[ca]-t.F(int(ca)) > peak[cb]-t.F(int(cb))
		})
		childOrder[v] = kids
		// Bottom-up peak: while processing the j-th subtree, the files of
		// the j−1 finished subtrees are resident; the node's own assembly
		// MemReq(v) comes last with all children files resident.
		var resident, best int64
		for _, c := range kids {
			if cand := resident + peak[c]; cand > best {
				best = cand
			}
			resident += t.F(int(c))
		}
		best = maxInt64(best, t.MemReq(v))
		peak[v] = best
	}
	// Emit the bottom-up postorder following childOrder, then reverse it to
	// the top-down orientation.
	order := make([]int, 0, p)
	type frame struct {
		node int32
		next int32
	}
	stack := []frame{{int32(t.Root()), 0}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := childOrder[fr.node]
		if int(fr.next) < len(kids) {
			c := kids[fr.next]
			fr.next++
			stack = append(stack, frame{c, 0})
			continue
		}
		order = append(order, int(fr.node))
		stack = stack[:len(stack)-1]
	}
	return Result{Memory: peak[t.Root()], Order: tree.ReverseOrder(order)}
}
