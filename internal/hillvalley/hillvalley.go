// Package hillvalley is the solver kernel shared by the MinMemory and
// MinIO sides of the reproduction: Liu's canonical hill–valley profile
// machinery (Liu, "An application of generalized tree pebbling to sparse
// matrix factorization", SIAM J. Algebraic Discrete Methods 8(3), 1987),
// extracted from internal/traversal so that both the exact Liu solver and
// the schedule simulator's peak accounting consume one implementation.
//
// A memory curve — the resident memory of a traversal sampled at every
// step — canonicalizes into segments (h₁,v₁),…,(h_k,v_k) with
// non-increasing hills h and non-decreasing valleys v: memory rises to
// h_i during segment i and can be parked at v_i when it ends. Two
// operations make this a solver kernel:
//
//   - Canonicalize turns any execution-ordered (peak, end-valley) curve
//     into its canonical form. The schedule simulator uses it to report
//     the hill–valley decomposition of a replay.
//   - Kernel computes the canonical profile of every subtree bottom-up
//     and, from the root profile, Liu's exact MinMemory value and an
//     optimal traversal. Children profiles are combined by a true k-way
//     heap merge of their segments in non-increasing (hill−valley) order —
//     Liu's theorem shows this interleaving is optimal — followed by the
//     node's own assembly step and re-canonicalization.
//
// The Kernel recycles every internal buffer (segment stack, merge heap,
// rope arena, canonicalization scratch) across runs, so a steady-state
// Profile pass performs no per-node allocations. A node with two or more
// children costs O(S log c) for the S segments of its children and its
// fan-out c. A node with one child skips the merge: its step is appended
// to the child's profile in place, popping the segments it absorbs, in
// amortised O(1) — so a path-shaped tree, which the band and
// natural-order grid matrices produce, costs O(p) rather than O(p²). The
// package functions Profile and Exact draw kernels from an internal pool
// and are safe for concurrent use.
package hillvalley

// Segment is one canonical hill–valley segment: memory rises to Hill
// during the segment and can be parked at Valley when it ends.
type Segment struct {
	Hill   int64
	Valley int64
}

// Canonicalize turns an execution-ordered list of (peak, end-valley)
// segments into the canonical hill–valley form: hills are suffix maxima,
// valleys the suffix minima that follow them, so the result has
// non-increasing hills and non-decreasing valleys. The input is read only;
// the result is appended to dst (pass nil to allocate). Canonicalize of an
// empty curve is empty.
func Canonicalize(raw []Segment, dst []Segment) []Segment {
	m := len(raw)
	if m == 0 {
		return dst
	}
	// First index of the suffix maximum hill and of the suffix minimum
	// valley, computed right to left so the whole pass is O(m).
	hillIdx := make([]int32, m)
	valIdx := make([]int32, m)
	fillSuffixIndices(raw, hillIdx, valIdx)
	i := 0
	for i < m {
		// Canonical hill: the max peak over the suffix, at its first
		// occurrence a. Canonical valley: the min end-valley at or after a,
		// at its first occurrence b. Segments [i, b] collapse into one.
		a := int(hillIdx[i])
		b := int(valIdx[a])
		dst = append(dst, Segment{Hill: raw[a].Hill, Valley: raw[b].Valley})
		i = b + 1
	}
	return dst
}

// hillValleyer abstracts the two segment representations — the exported
// Segment and the kernel's internal seg — over one shared suffix-index
// pass, so the first-occurrence rules cannot drift between them.
type hillValleyer interface {
	hillValley() (hill, valley int64)
}

// hillValley implements hillValleyer.
func (s Segment) hillValley() (int64, int64) { return s.Hill, s.Valley }

// fillSuffixIndices computes, for every position of raw, the first index of
// the suffix maximum hill and of the suffix minimum valley.
func fillSuffixIndices[S hillValleyer](raw []S, hillIdx, valIdx []int32) {
	m := len(raw)
	hillIdx[m-1], valIdx[m-1] = int32(m-1), int32(m-1)
	for i := m - 2; i >= 0; i-- {
		hi, vi := raw[i].hillValley()
		hNext, _ := raw[hillIdx[i+1]].hillValley()
		_, vNext := raw[valIdx[i+1]].hillValley()
		if hi >= hNext {
			hillIdx[i] = int32(i)
		} else {
			hillIdx[i] = hillIdx[i+1]
		}
		if vi <= vNext {
			valIdx[i] = int32(i)
		} else {
			valIdx[i] = valIdx[i+1]
		}
	}
}
