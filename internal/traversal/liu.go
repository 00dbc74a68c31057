package traversal

import (
	"repro/internal/hillvalley"
	"repro/internal/tree"
)

// LiuExact implements Liu's exact MinMemory algorithm (Liu, "An application
// of generalized tree pebbling to sparse matrix factorization", SIAM
// J. Algebraic Discrete Methods 8(3), 1987), the reference algorithm the
// paper compares MinMem against.
//
// Every subtree is summarized by its hill–valley profile: the canonical
// decomposition of the optimal traversal's memory curve into segments
// (h₁,v₁),…,(h_k,v_k) with non-increasing hills h and non-decreasing
// valleys v. Children profiles are combined by a multi-way merge of their
// segments in non-increasing (h−v) order — Liu's theorem shows this
// interleaving is optimal — followed by the node's own assembly step and
// re-canonicalization. The minimum memory of the whole tree is the first
// hill of the root profile. Worst-case complexity O(p²), reached when Θ(p)
// multi-child nodes each merge a profile of Θ(p) segments, as on a
// caterpillar whose spine keeps a long profile. A single-child node skips
// the merge and extends its child's profile in place in amortised O(1), so
// a path-shaped tree costs O(p).
//
// The profile machinery lives in the shared internal/hillvalley kernel
// (heap-based k-way merge over pooled arenas); this function adapts it to
// the package's Result type. The computation runs in the bottom-up
// (in-tree) view and the resulting traversal is reversed, so the returned
// Result is top-down like the other algorithms.
func LiuExact(t *tree.Tree) Result {
	mem, order := hillvalley.Exact(t)
	return Result{Memory: mem, Order: tree.ReverseOrder(order)}
}

// ProfileSegment is one canonical hill–valley segment of a subtree's memory
// profile under an optimal traversal: memory rises to Hill during the
// segment and can be parked at Valley when it ends. It is the kernel's
// segment type.
type ProfileSegment = hillvalley.Segment

// LiuProfile exposes Liu's canonical hill–valley decomposition for the
// whole tree (bottom-up view): hills are non-increasing, valleys
// non-decreasing, the first hill is the tree's minimum memory and the last
// valley is the root's retained file. It is the certificate structure
// behind LiuExact.
func LiuProfile(t *tree.Tree) []ProfileSegment {
	return hillvalley.Profile(t)
}
