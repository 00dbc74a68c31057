package ordering

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// This file preserves the per-component RCM verbatim, as the reference
// the differential test pins the linear version against: every component
// allocates an O(n) level array that every BFS clears in full, and every
// visited vertex gets a fresh neighbour slice sorted with sort.Slice.

// refReverseCuthillMcKee is the reference ReverseCuthillMcKee: BFS from a
// pseudo-peripheral vertex visiting neighbours by increasing degree, then
// reversed.
func refReverseCuthillMcKee(m *sparse.Matrix) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: RCM needs a symmetric pattern")
	}
	n := m.N()
	visited := make([]bool, n)
	deg := func(v int) int { return len(m.Col(v)) }
	order := make([]int, 0, n)
	var queue []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := refPseudoPeripheral(m, start)
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			var next []int
			for _, w := range m.Col(v) {
				if int(w) != v && !visited[w] {
					visited[w] = true
					next = append(next, int(w))
				}
			}
			sort.Slice(next, func(a, b int) bool {
				if deg(next[a]) != deg(next[b]) {
					return deg(next[a]) < deg(next[b])
				}
				return next[a] < next[b]
			})
			queue = append(queue, next...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
}

// refPseudoPeripheral finds an approximately eccentric vertex of the connected
// component containing start via repeated BFS (the George–Liu heuristic).
func refPseudoPeripheral(m *sparse.Matrix, start int) int {
	n := m.N()
	level := make([]int32, n)
	cur := start
	curEcc := -1
	for iter := 0; iter < 8; iter++ {
		last, ecc := refBFSFarthest(m, cur, level)
		if ecc <= curEcc {
			break
		}
		curEcc = ecc
		cur = last
	}
	return cur
}

// refBFSFarthest runs a BFS from root, filling level (−1 = unreached), and
// returns a farthest vertex of smallest degree and the eccentricity.
func refBFSFarthest(m *sparse.Matrix, root int, level []int32) (far int, ecc int) {
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []int{root}
	far, ecc = root, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if int(level[v]) > ecc || (int(level[v]) == ecc && len(m.Col(v)) < len(m.Col(far))) {
			far, ecc = v, int(level[v])
		}
		for _, w := range m.Col(v) {
			if level[w] == -1 {
				level[w] = level[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return far, ecc
}
