package traversal

import (
	"fmt"

	"repro/internal/tree"
)

// This file preserves the per-level-slice implementation of Explore
// (Algorithm 3) and its drivers verbatim, as the reference the
// differential and fuzz tests pin the shared-buffer explore against: every
// call builds its own order slice and a commit appends the sub-traversal
// to it, so a path copies O(depth²) entries.

// refExploreResult is the reference ⟨M_i, L_i, Tr_i, M_i^peak⟩ tuple.
type refExploreResult struct {
	min   int64
	cut   []cutEntry
	order []int32
	peak  int64
}

type refExploreState struct {
	t          *tree.Tree
	countCalls bool
	calls      int64
}

// refMinMem is the reference MinMem.
func refMinMem(t *tree.Tree) Result {
	var (
		avail int64
		st    = refExploreState{t: t}
		out   refExploreResult
	)
	peak := t.MaxMemReq()
	for peak != Infinite {
		avail = peak
		out = st.explore(t.Root(), avail, out.cut, out.order)
		peak = out.peak
	}
	order := make([]int, len(out.order))
	for i, v := range out.order {
		order[i] = int(v)
	}
	return Result{Memory: avail, Order: order}
}

// refMinMemNoReuse is the reference MinMemNoReuse.
func refMinMemNoReuse(t *tree.Tree) Result {
	var (
		avail int64
		st    = refExploreState{t: t}
		out   refExploreResult
	)
	peak := t.MaxMemReq()
	for peak != Infinite {
		avail = peak
		out = st.explore(t.Root(), avail, nil, nil)
		peak = out.peak
	}
	order := make([]int, len(out.order))
	for i, v := range out.order {
		order[i] = int(v)
	}
	return Result{Memory: avail, Order: order}
}

// refTraversalWithin is the reference TraversalWithin.
func refTraversalWithin(t *tree.Tree, m int64) ([]int, error) {
	_, _, order, peak := refExplore(t, m)
	if peak != Infinite {
		return nil, fmt.Errorf("traversal: memory %d is insufficient; visiting one more node needs %d (optimal is %d)",
			m, peak, refMinMem(t).Memory)
	}
	return order, nil
}

// refExplore is the reference Explore.
func refExplore(t *tree.Tree, avail int64) (minMemory int64, frontier []int, order []int, peak int64) {
	st := refExploreState{t: t}
	out := st.explore(t.Root(), avail, nil, nil)
	frontier = make([]int, len(out.cut))
	for i, e := range out.cut {
		frontier[i] = int(e.node)
	}
	order = make([]int, len(out.order))
	for i, v := range out.order {
		order[i] = int(v)
	}
	return out.min, frontier, order, out.peak
}

// refExploreCalls is the reference ExploreCalls.
func refExploreCalls(t *tree.Tree, reuse bool) int64 {
	st := refExploreState{t: t, countCalls: true}
	var out refExploreResult
	peak := t.MaxMemReq()
	for peak != Infinite {
		if reuse {
			out = st.explore(t.Root(), peak, out.cut, out.order)
		} else {
			out = st.explore(t.Root(), peak, nil, nil)
		}
		peak = out.peak
	}
	return st.calls
}

// explore is the reference Algorithm 3. The budget avail accounts for the
// whole subtree rooted at i, input file included. When init is non-empty, exploration
// resumes from that saved frontier (only used at the tree root by MinMem)
// and initOrder is the traversal that reached it.
func (st *refExploreState) explore(i int, avail int64, init []cutEntry, initOrder []int32) refExploreResult {
	if st.countCalls {
		st.calls++
	}
	t := st.t
	fi, ni := t.F(i), t.N(i)
	if len(init) == 0 {
		if t.IsLeaf(i) {
			if ni+fi <= avail {
				return refExploreResult{min: 0, order: []int32{int32(i)}, peak: Infinite}
			}
			return refExploreResult{min: Infinite, peak: ni + fi}
		}
		if req := t.MemReq(i); req > avail {
			return refExploreResult{min: Infinite, peak: req}
		}
	}
	var (
		cut   []cutEntry
		order []int32
		sumL  int64
	)
	if len(init) > 0 {
		cut = init
		order = initOrder
		for _, e := range cut {
			sumL += t.F(int(e.node))
		}
	} else {
		nc := t.NumChildren(i)
		cut = make([]cutEntry, nc)
		for k := 0; k < nc; k++ {
			c := t.Child(i, k)
			// Never explored: peak −1 marks it as an immediate candidate.
			cut[k] = cutEntry{node: int32(c), peak: -1}
			sumL += t.F(c)
		}
		order = append(order, int32(i))
	}
	// Iterate: explore every candidate; commits shrink the frontier memory,
	// which can turn other entries back into candidates.
	for {
		progressed := false
		for k := 0; k < len(cut); k++ {
			e := cut[k]
			budget := avail - (sumL - t.F(int(e.node)))
			if e.peak >= 0 && budget < e.peak {
				continue // not a candidate: re-exploring cannot reach a new node
			}
			sub := st.explore(int(e.node), budget, nil, nil)
			if sub.min <= t.F(int(e.node)) {
				// Process e.node: replace it by the cut found in its subtree
				// (line 17) and append the sub-traversal (line 18). The cut
				// is a set, so a swap-remove plus append keeps the commit
				// O(|sub-cut|) instead of O(|cut|).
				sumL += sub.min - t.F(int(e.node))
				cut[k] = cut[len(cut)-1]
				cut = cut[:len(cut)-1]
				cut = append(cut, sub.cut...)
				k-- // revisit the slot that now holds the swapped-in entry
				order = append(order, sub.order...)
				progressed = true
			} else {
				cut[k].peak = sub.peak
			}
		}
		if !progressed {
			break
		}
	}
	if len(cut) == 0 {
		return refExploreResult{min: 0, cut: nil, order: order, peak: Infinite}
	}
	peak := int64(Infinite)
	for _, e := range cut {
		if cand := e.peak + (sumL - t.F(int(e.node))); cand < peak {
			peak = cand
		}
	}
	return refExploreResult{min: sumL, cut: cut, order: order, peak: peak}
}

// The rest of this file preserves the explore that preceded the frontier
// arena verbatim: one shared traversal buffer, but a fresh frontier slice
// per internal node, with a commit appending the sub-frontier to its
// parent's. The arena explore must match it order for order.

// sliceExploreResult is ⟨M_i, L_i, M_i^peak⟩ with the frontier as its own
// slice.
type sliceExploreResult struct {
	min  int64
	cut  []cutEntry
	peak int64
}

type sliceExploreState struct {
	t   *tree.Tree
	ord []int32
}

// sliceMinMem is MinMem over the per-node-slice explore.
func sliceMinMem(t *tree.Tree) Result {
	var (
		avail int64
		st    = sliceExploreState{t: t}
		out   sliceExploreResult
	)
	peak := t.MaxMemReq()
	for peak != Infinite {
		avail = peak
		out = st.fromRoot(avail, out.cut)
		peak = out.peak
	}
	order := make([]int, len(st.ord))
	for i, v := range st.ord {
		order[i] = int(v)
	}
	return Result{Memory: avail, Order: order}
}

// sliceExploreFrontier is Explore's frontier over the per-node-slice
// explore.
func sliceExploreFrontier(t *tree.Tree, avail int64) []int {
	st := sliceExploreState{t: t}
	out := st.fromRoot(avail, nil)
	frontier := make([]int, len(out.cut))
	for i, e := range out.cut {
		frontier[i] = int(e.node)
	}
	return frontier
}

func (st *sliceExploreState) fromRoot(avail int64, init []cutEntry) sliceExploreResult {
	if len(init) == 0 {
		st.ord = st.ord[:0]
	}
	return st.explore(st.t.Root(), avail, init)
}

func (st *sliceExploreState) explore(i int, avail int64, init []cutEntry) sliceExploreResult {
	t := st.t
	fi, ni := t.F(i), t.N(i)
	if len(init) == 0 {
		if t.IsLeaf(i) {
			if ni+fi <= avail {
				st.ord = append(st.ord, int32(i))
				return sliceExploreResult{min: 0, peak: Infinite}
			}
			return sliceExploreResult{min: Infinite, peak: ni + fi}
		}
		if req := t.MemReq(i); req > avail {
			return sliceExploreResult{min: Infinite, peak: req}
		}
	}
	var (
		cut  []cutEntry
		sumL int64
	)
	if len(init) > 0 {
		cut = init
		for _, e := range cut {
			sumL += t.F(int(e.node))
		}
	} else {
		nc := t.NumChildren(i)
		cut = make([]cutEntry, nc)
		for k := 0; k < nc; k++ {
			c := t.Child(i, k)
			cut[k] = cutEntry{node: int32(c), peak: -1}
			sumL += t.F(c)
		}
		st.ord = append(st.ord, int32(i))
	}
	for {
		progressed := false
		for k := 0; k < len(cut); k++ {
			e := cut[k]
			budget := avail - (sumL - t.F(int(e.node)))
			if e.peak >= 0 && budget < e.peak {
				continue
			}
			mark := len(st.ord)
			sub := st.explore(int(e.node), budget, nil)
			if sub.min <= t.F(int(e.node)) {
				sumL += sub.min - t.F(int(e.node))
				cut[k] = cut[len(cut)-1]
				cut = cut[:len(cut)-1]
				cut = append(cut, sub.cut...)
				k--
				progressed = true
			} else {
				st.ord = st.ord[:mark]
				cut[k].peak = sub.peak
			}
		}
		if !progressed {
			break
		}
	}
	if len(cut) == 0 {
		return sliceExploreResult{min: 0, cut: nil, peak: Infinite}
	}
	peak := int64(Infinite)
	for _, e := range cut {
		if cand := e.peak + (sumL - t.F(int(e.node))); cand < peak {
			peak = cand
		}
	}
	return sliceExploreResult{min: sumL, cut: cut, peak: peak}
}
