package minio

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// CheckOutOfCore is Algorithm 2 of the paper: it validates an out-of-core
// traversal given by the execution order σ and the I/O schedule τ, and
// returns the I/O volume.
//
// tau[i] is the step (0-based index into order) before which the input file
// of node i is written to secondary memory, or -1 for ∞ (never written).
// Following Definition 3, a valid schedule satisfies, for every non-root i,
// σ(parent(i)) < τ(i) < σ(i) when τ(i) ≠ ∞, and memory never overflows.
// (The pseudocode of Algorithm 2 tests "σ(i) ≥ step"; per Equations (5)–(6)
// that is a typo for the consumption-order test implemented here.)
func CheckOutOfCore(t *tree.Tree, order []int, tau []int, m int64) (int64, error) {
	if err := t.IsTopDownOrder(order); err != nil {
		return 0, err
	}
	p := t.Len()
	if len(tau) != p {
		return 0, fmt.Errorf("minio: tau has %d entries, want %d", len(tau), p)
	}
	sigma := make([]int, p)
	for step, v := range order {
		sigma[v] = step
	}
	// Writes grouped by step.
	writesAt := make([][]int, p+1)
	for i, ti := range tau {
		if ti < 0 {
			continue
		}
		if ti > p {
			return 0, fmt.Errorf("minio: tau[%d]=%d out of range", i, ti)
		}
		if i == t.Root() {
			// The root's input arrives from the outside world; writing it
			// out before step 0 is possible but useless. Validate bounds
			// like any other file.
			if ti >= sigma[i] {
				return 0, fmt.Errorf("minio: root file written at %d but consumed at %d", ti, sigma[i])
			}
		} else {
			if sigma[t.Parent(i)] >= ti {
				return 0, fmt.Errorf("minio: file %d written at step %d before being produced at %d", i, ti, sigma[t.Parent(i)])
			}
			if ti >= sigma[i] {
				return 0, fmt.Errorf("minio: file %d written at step %d but consumed at %d", i, ti, sigma[i])
			}
		}
		writesAt[ti] = append(writesAt[ti], i)
	}
	// Simulate.
	written := make([]bool, p)
	mavail := m - t.F(t.Root())
	var io int64
	for step, j := range order {
		for _, w := range writesAt[step] {
			if written[w] {
				return 0, fmt.Errorf("minio: file %d written twice", w)
			}
			written[w] = true
			mavail += t.F(w)
			io += t.F(w)
		}
		if written[j] {
			written[j] = false
			mavail -= t.F(j)
		}
		if t.MemReq(j) > mavail+t.F(j) {
			return 0, fmt.Errorf("minio: step %d: MemReq(%d)=%d exceeds available %d", step, j, t.MemReq(j), mavail+t.F(j))
		}
		mavail += t.F(j) - t.ChildFileSum(j)
	}
	return io, nil
}

// LowerBoundDivisible computes, for a fixed traversal, the I/O volume of the
// optimal *divisible* schedule, in which fractions of files may be written
// out. LSNF with fractional eviction is optimal for that relaxation
// (Section V-B), and its volume lower-bounds every integral schedule for
// the same traversal.
func LowerBoundDivisible(t *tree.Tree, order []int, m int64) (int64, error) {
	if err := t.IsTopDownOrder(order); err != nil {
		return 0, err
	}
	p := t.Len()
	pos := make([]int, p)
	for step, v := range order {
		pos[v] = step
	}
	resident := schedule.NewResidentSet(order, pos)
	residentSum := t.F(t.Root())
	// inMem[i]: bytes of file i still in memory (rest is on disk).
	inMem := make([]int64, p)
	if t.F(t.Root()) > 0 {
		resident.Add(t.Root())
		inMem[t.Root()] = t.F(t.Root())
	}
	var io int64
	for _, j := range order {
		if inMem[j] > 0 {
			// Fully evicted or zero-size files are not in the set.
			resident.Remove(j)
			residentSum -= inMem[j]
		}
		need := residentSum + t.MemReq(j) - m
		// Evict fractional bytes from the latest-consumed files first.
		for need > 0 {
			v, ok := resident.Latest()
			if !ok {
				return 0, fmt.Errorf("minio: divisible bound infeasible (M below MemReq)")
			}
			amt := inMem[v]
			if amt > need {
				amt = need
			}
			inMem[v] -= amt
			residentSum -= amt
			io += amt
			need -= amt
			if inMem[v] == 0 {
				resident.Remove(v)
			}
		}
		inMem[j] = 0
		for k := 0; k < t.NumChildren(j); k++ {
			c := t.Child(j, k)
			if t.F(c) > 0 {
				inMem[c] = t.F(c)
				resident.Add(c)
				residentSum += t.F(c)
			}
		}
	}
	return io, nil
}
