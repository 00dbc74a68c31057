package traversal

import "repro/internal/tree"

// MinMemNoReuse is an ablation of MinMem: like Algorithm 4 it lifts the
// available memory to the reported peak after every stalled sweep, but it
// discards the saved frontier and traversal prefix and restarts Explore
// from the root each time. It returns the same optimal memory as MinMem —
// the lift sequence does not depend on the reuse — at a higher cost; the
// ablation benchmark quantifies how much the frontier reuse of the
// published algorithm saves.
func MinMemNoReuse(t *tree.Tree) Result {
	var (
		avail int64
		st    = exploreState{t: t}
		out   exploreResult
	)
	peak := t.MaxMemReq()
	for peak != Infinite {
		avail = peak
		out = st.fromRoot(avail, nil)
		peak = out.peak
	}
	return Result{Memory: avail, Order: st.order()}
}

// ExploreCalls counts the recursive Explore invocations performed by a full
// MinMem run, the cost measure behind the O(p²) analysis. reuse selects the
// published algorithm (true) or the restart ablation (false).
func ExploreCalls(t *tree.Tree, reuse bool) int64 {
	st := exploreState{t: t, countCalls: true}
	var out exploreResult
	peak := t.MaxMemReq()
	for peak != Infinite {
		if reuse {
			out = st.fromRoot(peak, out.cut)
		} else {
			out = st.fromRoot(peak, nil)
		}
		peak = out.peak
	}
	return st.calls
}
