// Package minio implements the MinIO side of the paper: out-of-core
// traversals (Section V). Given a fixed main memory M smaller than what an
// in-core traversal needs, files must temporarily be written to secondary
// memory; the I/O volume is the total size of files written (each written
// file is read back exactly once, so reads mirror writes).
//
// MinIO is NP-hard — Theorem 2 proves it via a reduction from 2-Partition,
// reproduced here by tree.NewTwoPartition and verified in the tests against
// the exact solver — so the package provides the paper's six greedy
// eviction heuristics (Section V-B) plus exact brute-force oracles for
// small instances and a divisible-case lower bound.
//
// The eviction simulation itself lives in the schedule package — the single
// traversal simulator shared with the in-core side — and the six policies
// are schedule Evictors; this package keeps the Policy enum as the paper's
// nomenclature, the exact oracles, and the Algorithm 2 checker.
package minio

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// Policy selects the greedy eviction heuristic of Section V-B. All policies
// examine the set S of produced, still-resident files ordered by the time
// their consumer is scheduled, latest first.
type Policy int

const (
	// LSNF (Last Scheduled Node First) evicts files in S order until enough
	// space is freed. Optimal for the divisible relaxation of MinIO.
	LSNF Policy = iota
	// FirstFit evicts the first file in S at least as large as the
	// requirement; if none exists it falls back to LSNF.
	FirstFit
	// BestFit repeatedly evicts the file whose size is closest to the
	// remaining requirement (above or below).
	BestFit
	// FirstFill repeatedly evicts the first file in S smaller than the
	// remaining requirement; if none exists it falls back to LSNF.
	FirstFill
	// BestFill repeatedly evicts the largest file strictly smaller than the
	// remaining requirement; if none exists it falls back to LSNF.
	BestFill
	// BestKCombination considers the first K files of S (K = 5, as in the
	// paper) and evicts the non-empty subset whose total size is closest to
	// the remaining requirement, repeating until enough space is freed.
	BestKCombination
)

// BestKWindow is the K of BestKCombination.
const BestKWindow = schedule.BestKWindow

// Policies lists all heuristics in display order.
var Policies = []Policy{LSNF, FirstFit, BestFit, FirstFill, BestFill, BestKCombination}

// policyKeys maps each Policy to its schedule-registry name.
var policyKeys = [...]string{
	LSNF:             "lsnf",
	FirstFit:         "first-fit",
	BestFit:          "best-fit",
	FirstFill:        "first-fill",
	BestFill:         "best-fill",
	BestKCombination: "best-k",
}

// String returns the paper's name for the policy.
func (p Policy) String() string {
	if p < LSNF || p > BestKCombination {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return schedule.DisplayName(policyKeys[p])
}

// WriteEvent records one eviction: before executing order[Step], the input
// file of Node (size Size) was written to secondary memory. It is the
// schedule package's event type.
type WriteEvent = schedule.WriteEvent

// Result is the outcome of an out-of-core simulation.
type Result struct {
	// IO is the total volume written to secondary memory (= volume read
	// back), the objective of MinIO.
	IO int64
	// Writes lists the evictions in execution order; Tau() converts them to
	// the τ function of Definition 3.
	Writes []WriteEvent
}

// Tau converts the write schedule into the τ function of Definition 3:
// tau[i] is the step before which file i is written, or -1 (∞) if file i is
// never written. p is the number of nodes.
func (r Result) Tau(p int) []int {
	tau := make([]int, p)
	for i := range tau {
		tau[i] = -1
	}
	for _, w := range r.Writes {
		tau[w.Node] = w.Step
	}
	return tau
}

// Simulate replays the top-down traversal `order` of t with main memory m,
// invoking the eviction policy whenever the next node does not fit. It
// returns the resulting I/O volume and write schedule.
//
// Simulation follows Section V-B: when node j is next, its input file is
// first staged back if it was evicted, and the policy must free
// IOReq(j) = (MemReq(j) − f_j) − M_avail units by writing resident files.
// Zero-size files are never evicted (they free nothing and cost nothing).
//
// Simulate fails if order is not a valid top-down traversal or if m is too
// small even with maximal eviction (m < MaxMemReq).
func Simulate(t *tree.Tree, order []int, m int64, pol Policy) (Result, error) {
	return SimulateWithWindow(t, order, m, pol, BestKWindow)
}

// SimulateWithWindow is Simulate with an explicit Best-K subset window
// (ignored by every policy but BestKCombination; the paper fixes K = 5).
// The ablation benchmarks sweep the window to show the quality/cost
// trade-off. The replay itself is schedule.Simulate, the unified traversal
// simulator; window validation lives in the schedule.BestK constructor,
// which rejects values outside [1, schedule.MaxBestKWindow] — including
// an explicit 0, which EvictorByName would otherwise map to the default —
// with a typed *schedule.WindowRangeError.
func SimulateWithWindow(t *tree.Tree, order []int, m int64, pol Policy, window int) (Result, error) {
	if pol < LSNF || pol > BestKCombination {
		return Result{}, fmt.Errorf("minio: unknown eviction policy %d", int(pol))
	}
	var ev schedule.Evictor
	var err error
	if pol == BestKCombination {
		ev, err = schedule.BestK(window)
	} else {
		ev, err = schedule.EvictorByName(policyKeys[pol], 0)
	}
	if err != nil {
		return Result{}, err
	}
	sim, err := schedule.Simulate(t, order, schedule.Config{Memory: m, Evict: ev})
	if err != nil {
		return Result{}, err
	}
	return Result{IO: sim.IO, Writes: sim.Writes}, nil
}
