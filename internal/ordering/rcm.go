package ordering

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// ReverseCuthillMcKee computes the RCM ordering: BFS from a
// pseudo-peripheral vertex visiting neighbours by increasing degree, then
// reversed. It reduces bandwidth/profile — a classic baseline ordering.
// Every buffer is allocated once per call and each BFS resets only what it
// reached, so the cost is linear in nnz however many components there are.
func ReverseCuthillMcKee(m *sparse.Matrix) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: RCM needs a symmetric pattern")
	}
	n := m.N()
	visited := make([]bool, n)
	byDegree := func(a, b int32) int {
		if da, db := len(m.Col(int(a))), len(m.Col(int(b))); da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	queue := make([]int32, n)
	var next []int32
	// order doubles as the BFS queue: vertices are appended when reached
	// and visited from head on.
	order := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(m, int32(start), level, queue)
		visited[root] = true
		head := len(order)
		order = append(order, int(root))
		for ; head < len(order); head++ {
			v := order[head]
			next = next[:0]
			for _, w := range m.Col(v) {
				if int(w) != v && !visited[w] {
					visited[w] = true
					next = append(next, w)
				}
			}
			slices.SortFunc(next, byDegree)
			for _, w := range next {
				order = append(order, int(w))
			}
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
}

// pseudoPeripheral finds an approximately eccentric vertex of the connected
// component containing start via repeated BFS (the George–Liu heuristic).
// level must be all −1 and queue hold n entries; level is left all −1.
func pseudoPeripheral(m *sparse.Matrix, start int32, level, queue []int32) int32 {
	cur := start
	curEcc := int32(-1)
	for iter := 0; iter < 8; iter++ {
		last, ecc := bfsFarthest(m, cur, level, queue)
		if ecc <= curEcc {
			break
		}
		curEcc = ecc
		cur = last
	}
	return cur
}

// bfsFarthest runs a BFS from root over its component, using level
// (−1 = unreached) and queue, and returns a farthest vertex of smallest
// degree and the eccentricity. It resets the levels it set before
// returning.
func bfsFarthest(m *sparse.Matrix, root int32, level, queue []int32) (far, ecc int32) {
	level[root] = 0
	queue[0] = root
	count := 1
	far, ecc = root, 0
	for head := 0; head < count; head++ {
		v := queue[head]
		if level[v] > ecc || (level[v] == ecc && len(m.Col(int(v))) < len(m.Col(int(far)))) {
			far, ecc = v, level[v]
		}
		for _, w := range m.Col(int(v)) {
			if level[w] == -1 {
				level[w] = level[v] + 1
				queue[count] = w
				count++
			}
		}
	}
	for _, v := range queue[:count] {
		level[v] = -1
	}
	return far, ecc
}

// Natural returns the identity ordering, the "no reordering" baseline.
func Natural(m *sparse.Matrix) []int {
	perm := make([]int, m.N())
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// IsPermutation validates that perm is a permutation of 0..n−1.
func IsPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("ordering: permutation has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n {
			return fmt.Errorf("ordering: entry %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("ordering: entry %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}
