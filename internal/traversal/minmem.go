package traversal

import (
	"fmt"
	"sync"

	"repro/internal/tree"
)

// MinMem implements Algorithm 4 of the paper: the new exact MinMemory
// algorithm. It starts from the trivial lower bound max_i MemReq(i) and
// repeatedly sweeps the tree top-down with Explore; whenever the sweep
// stalls, Explore reports the smallest memory that would let it visit one
// more node, and MinMem lifts the available memory exactly to that value and
// resumes from the saved frontier. The last lift is the optimal memory.
//
// Worst-case complexity O(p²), reached when Θ(p) lifts each re-explore
// Θ(p) nodes below the saved frontier. Paths add no factor of their own:
// every explore call appends to one shared traversal buffer, so a sweep
// down a path of depth d costs O(d), not the O(d²) of copying each
// subtree's traversal into its parent's. In practice only a few sweeps are
// needed.
func MinMem(t *tree.Tree) Result {
	st := getExploreState(t)
	defer putExploreState(st)
	var avail int64
	peak := t.MaxMemReq()
	for peak != Infinite {
		avail = peak
		peak = st.fromRoot(avail, true).peak
	}
	return Result{Memory: avail, Order: st.order()}
}

// TraversalWithin returns a feasible top-down traversal of t using at most
// m units of memory, or an error naming the smallest memory that would
// allow further progress. It is the practical entry point for a solver that
// knows its memory budget: Explore either completes within the budget or
// certifies the budget is too small.
func TraversalWithin(t *tree.Tree, m int64) ([]int, error) {
	_, _, order, peak := Explore(t, m)
	if peak != Infinite {
		return nil, fmt.Errorf("traversal: memory %d is insufficient; visiting one more node needs %d (optimal is %d)",
			m, peak, MinMem(t).Memory)
	}
	return order, nil
}

// Explore implements Algorithm 3 of the paper as a standalone entry point:
// starting from the root with the given available memory, it explores the
// tree and returns the minimum reachable frontier memory, the frontier
// itself, a traversal reaching it, and the minimal memory needed to visit
// one more node (Infinite if the whole tree was processed).
func Explore(t *tree.Tree, avail int64) (minMemory int64, frontier []int, order []int, peak int64) {
	st := getExploreState(t)
	defer putExploreState(st)
	out := st.fromRoot(avail, false)
	frontier = make([]int, len(st.cut))
	for i, e := range st.cut {
		frontier[i] = int(e.node)
	}
	return out.min, frontier, st.order(), out.peak
}

// cutEntry is one frontier node together with the last known threshold:
// exploring its subtree with a (subtree-local) budget ≥ peak is guaranteed
// to visit at least one node not visited by the previous attempt.
type cutEntry struct {
	node int32
	peak int64
}

// exploreResult mirrors the tuple ⟨M_i, L_i, Tr_i, M_i^peak⟩ of Algorithm 3.
// Neither the frontier L_i nor the traversal Tr_i is carried here: both are
// the tails of the state's shared buffers that the call left behind.
type exploreResult struct {
	min  int64 // Σ files on the frontier at the reached state
	peak int64 // minimal memory to visit one more node (Infinite if done)
}

type exploreState struct {
	t *tree.Tree
	// ord is the one traversal buffer of a run. Every explore call appends
	// the nodes it visits, so a call's traversal is ord[mark:] for the
	// length mark at its entry; a caller that does not commit a
	// sub-exploration truncates ord back to that mark.
	ord []int32
	// cut is the one frontier buffer of a run, a stack of segments: a
	// call's frontier is cut[base:] for the length base at its entry, and
	// every call below it pushes its own frontier on top. So when a child
	// returns, its frontier sits right above its parent's segment. A
	// caller that commits it swap-removes the child's entry, moving its
	// segment's last entry into the slot, and shifts the child's frontier
	// down by one onto the freed slot; one that does not truncates cut back
	// to its own segment. After fromRoot, cut is the root's frontier.
	cut []cutEntry
	// countCalls enables the instrumentation used by ExploreCalls.
	countCalls bool
	calls      int64
}

// exploreStates pools the explore buffers across runs, the way simScratch
// pools the simulator's, so a run on a deep path allocates no frontier.
var exploreStates = sync.Pool{New: func() any { return new(exploreState) }}

func getExploreState(t *tree.Tree) *exploreState {
	st := exploreStates.Get().(*exploreState)
	st.t = t
	return st
}

// putExploreState drops the tree and the counters and returns st's
// buffers to the pool.
func putExploreState(st *exploreState) {
	*st = exploreState{ord: st.ord[:0], cut: st.cut[:0]}
	exploreStates.Put(st)
}

// fromRoot runs explore at the tree root with the given budget. With
// resume and a non-empty saved frontier in cut (the previous run's), the
// run resumes from it, its traversal already in ord; otherwise the run
// starts afresh with an empty frontier and traversal.
func (st *exploreState) fromRoot(avail int64, resume bool) exploreResult {
	resume = resume && len(st.cut) > 0
	if !resume {
		st.ord, st.cut = st.ord[:0], st.cut[:0]
	}
	return st.explore(st.t.Root(), avail, resume)
}

// order copies the traversal out of the shared buffer.
func (st *exploreState) order() []int {
	order := make([]int, len(st.ord))
	for i, v := range st.ord {
		order[i] = int(v)
	}
	return order
}

// explore is Algorithm 3. The budget avail accounts for the whole subtree
// rooted at i, input file included. With resume (only used at the tree
// root by MinMem), exploration resumes from the saved frontier, the whole
// of cut, extending the traversal that reached it at the end of ord. The
// call's frontier is left in cut[base:], base being len(cut) at entry (0
// when resuming).
func (st *exploreState) explore(i int, avail int64, resume bool) exploreResult {
	if st.countCalls {
		st.calls++
	}
	t := st.t
	base := len(st.cut)
	if resume {
		base = 0
	}
	var sumL int64
	if resume {
		for _, e := range st.cut {
			sumL += t.F(int(e.node))
		}
	} else {
		fi, ni := t.F(i), t.N(i)
		if t.IsLeaf(i) {
			if ni+fi <= avail {
				st.ord = append(st.ord, int32(i))
				return exploreResult{min: 0, peak: Infinite}
			}
			return exploreResult{min: Infinite, peak: ni + fi}
		}
		if req := t.MemReq(i); req > avail {
			return exploreResult{min: Infinite, peak: req}
		}
		nc := t.NumChildren(i)
		for k := 0; k < nc; k++ {
			c := t.Child(i, k)
			// Never explored: peak −1 marks it as an immediate candidate.
			st.cut = append(st.cut, cutEntry{node: int32(c), peak: -1})
			sumL += t.F(c)
		}
		st.ord = append(st.ord, int32(i))
	}
	// Iterate: explore every candidate; commits shrink the frontier memory,
	// which can turn other entries back into candidates.
	for {
		progressed := false
		for k := base; k < len(st.cut); k++ {
			e := st.cut[k]
			budget := avail - (sumL - t.F(int(e.node)))
			if e.peak >= 0 && budget < e.peak {
				continue // not a candidate: re-exploring cannot reach a new node
			}
			mark, top := len(st.ord), len(st.cut)
			sub := st.explore(int(e.node), budget, false)
			if sub.min <= t.F(int(e.node)) {
				// Process e.node: replace it by the cut found in its subtree
				// (line 17); its traversal, already at the end of ord, is the
				// appended sub-traversal (line 18). The cut is a set, so a
				// swap-remove plus the sub-cut's shift onto the freed slot
				// keeps the commit O(|sub-cut|) instead of O(|cut|).
				sumL += sub.min - t.F(int(e.node))
				st.cut[k] = st.cut[top-1]
				copy(st.cut[top-1:], st.cut[top:])
				st.cut = st.cut[:len(st.cut)-1]
				k-- // revisit the slot that now holds the swapped-in entry
				progressed = true
			} else {
				st.ord = st.ord[:mark]
				st.cut = st.cut[:top]
				st.cut[k].peak = sub.peak
			}
		}
		if !progressed {
			break
		}
	}
	if len(st.cut) == base {
		return exploreResult{min: 0, peak: Infinite}
	}
	peak := int64(Infinite)
	for _, e := range st.cut[base:] {
		if cand := e.peak + (sumL - t.F(int(e.node))); cand < peak {
			peak = cand
		}
	}
	return exploreResult{min: sumL, peak: peak}
}
