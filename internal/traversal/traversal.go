// Package traversal implements the MinMemory algorithms of Jacquelin,
// Marchal, Robert and Uçar (IPDPS 2011): the in-core feasibility checker
// (Algorithm 1), Liu's optimal postorder (1986), Liu's exact algorithm via
// generalized tree pebbling (1987), the paper's new exact MinMem/Explore
// algorithm (Algorithms 3–4), and brute-force oracles for small trees.
//
// All exported functions speak the out-tree (top-down) orientation: a
// traversal is a permutation of the nodes scheduling every node after its
// parent. The in-tree (bottom-up, multifrontal) orientation is obtained by
// reversing an order with tree.ReverseOrder; Section III-C of the paper
// shows the two views need exactly the same memory.
package traversal

import (
	"fmt"
	"math"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// Infinite is the sentinel memory value meaning "not reachable with any
// finite memory" (used for peaks of fully explored subtrees).
const Infinite = math.MaxInt64

// Result is the outcome of a MinMemory algorithm: the minimum main memory
// the algorithm certifies and a top-down traversal achieving it.
type Result struct {
	// Memory is the smallest memory for which Order is feasible (and, for
	// the exact algorithms, for which any traversal is feasible).
	Memory int64
	// Order is a top-down traversal whose peak memory is exactly Memory.
	Order []int
}

// CheckInCore is Algorithm 1 of the paper: it verifies that order is a
// feasible top-down traversal of t within memory M, i.e. that precedence
// constraints hold and that memory never overflows. It returns nil on
// success and a descriptive error otherwise.
func CheckInCore(t *tree.Tree, order []int, m int64) error {
	peak, err := Peak(t, order)
	if err != nil {
		return err
	}
	if peak > m {
		return fmt.Errorf("traversal: peak memory %d exceeds M=%d", peak, m)
	}
	return nil
}

// Peak computes the exact memory high-water mark of a top-down traversal:
// the smallest M for which CheckInCore succeeds. It errors if order is not a
// valid top-down traversal (wrong length, duplicates, or a node scheduled
// before its parent). The accounting is the unified simulator of the
// schedule package, shared with the out-of-core side.
func Peak(t *tree.Tree, order []int) (int64, error) {
	sim, err := schedule.Simulate(t, order, schedule.Config{Direction: schedule.TopDown})
	if err != nil {
		return 0, err
	}
	return sim.Peak, nil
}

// PeakBottomUp computes the memory high-water mark of a bottom-up (in-tree)
// traversal: children files are resident until their parent executes,
// which replaces them by the parent's file. It errors if order is not a
// valid bottom-up traversal. By the reversal lemma of Section III-C,
// PeakBottomUp(t, order) == Peak(t, tree.ReverseOrder(order)).
func PeakBottomUp(t *tree.Tree, order []int) (int64, error) {
	sim, err := schedule.Simulate(t, order, schedule.Config{Direction: schedule.BottomUp})
	if err != nil {
		return 0, err
	}
	return sim.Peak, nil
}

// maxInt64 returns the larger of a and b.
func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
