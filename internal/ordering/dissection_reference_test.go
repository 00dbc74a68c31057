package ordering

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// This file preserves the map-based nested dissection verbatim, as the
// reference the differential and fuzz tests pin the flat-array version
// against: every bisection allocates and fills an O(n) membership array,
// BFS levels and distances live in map[int]int, levels are split through
// per-level slices, and each leaf subgraph is built through a local-index
// map and sparse.New.

// refNestedDissection is the reference NestedDissection: the graph is
// recursively bisected by level-set separators (BFS from a
// pseudo-peripheral vertex, cutting at the median level); parts are ordered
// first, separators last, and small parts fall back to minimum degree.
func refNestedDissection(m *sparse.Matrix, opt NestedDissectionOptions) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: nested dissection needs a symmetric pattern")
	}
	if opt.LeafSize <= 0 {
		opt.LeafSize = 64
	}
	n := m.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	perm := make([]int, 0, n)
	var rec func(vertices []int)
	rec = func(vertices []int) {
		if len(vertices) == 0 {
			return
		}
		if len(vertices) <= opt.LeafSize {
			sub, back, err := refInducedSubgraph(m, vertices)
			if err != nil {
				panic(err) // vertices come from valid recursion
			}
			sp, err := MinimumDegree(sub)
			if err != nil {
				panic(err)
			}
			for _, v := range sp {
				perm = append(perm, back[v])
			}
			return
		}
		parts, sep := refBisect(m, vertices)
		if len(sep) == 0 || len(parts) < 2 {
			// Could not split (e.g. a clique): order directly.
			sub, back, err := refInducedSubgraph(m, vertices)
			if err != nil {
				panic(err)
			}
			sp, err := MinimumDegree(sub)
			if err != nil {
				panic(err)
			}
			for _, v := range sp {
				perm = append(perm, back[v])
			}
			return
		}
		for _, part := range parts {
			rec(part)
		}
		perm = append(perm, sep...)
	}
	rec(all)
	if err := IsPermutation(perm, n); err != nil {
		return nil, fmt.Errorf("ordering: internal error: %w", err)
	}
	return perm, nil
}

// refBisect splits the vertex set into connected parts and a separator using
// BFS level sets inside the induced subgraph.
func refBisect(m *sparse.Matrix, vertices []int) (parts [][]int, sep []int) {
	n := m.N()
	inSet := make([]int32, n)
	for i := range inSet {
		inSet[i] = -1
	}
	for k, v := range vertices {
		inSet[v] = int32(k)
	}
	// BFS from a pseudo-peripheral vertex of the first component.
	level := make(map[int]int, len(vertices))
	root := refSubgraphPeripheral(m, vertices, inSet)
	queue := []int{root}
	level[root] = 0
	count := 1
	maxLevel := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range m.Col(v) {
			wi := int(w)
			if wi == v || inSet[wi] < 0 {
				continue
			}
			if _, ok := level[wi]; !ok {
				level[wi] = level[v] + 1
				if level[wi] > maxLevel {
					maxLevel = level[wi]
				}
				queue = append(queue, wi)
				count++
			}
		}
	}
	if count < len(vertices) {
		// Disconnected: unreached vertices form their own part; recurse on
		// the reached component without a separator by treating the
		// unreached side as a part.
		var reached, unreached []int
		for _, v := range vertices {
			if _, ok := level[v]; ok {
				reached = append(reached, v)
			} else {
				unreached = append(unreached, v)
			}
		}
		return [][]int{reached, unreached}, nil
	}
	if maxLevel < 2 {
		return nil, nil // too shallow to split (dense blob)
	}
	// Cut at the median level by vertex count.
	target := count / 2
	acc := 0
	cut := 0
	byLevel := make([][]int, maxLevel+1)
	for _, v := range vertices {
		byLevel[level[v]] = append(byLevel[level[v]], v)
	}
	for l := 0; l <= maxLevel; l++ {
		acc += len(byLevel[l])
		if acc >= target {
			cut = l
			break
		}
	}
	if cut == 0 {
		cut = 1
	}
	if cut == maxLevel {
		cut = maxLevel - 1
	}
	var below, above []int
	for l := 0; l < cut; l++ {
		below = append(below, byLevel[l]...)
	}
	for l := cut + 1; l <= maxLevel; l++ {
		above = append(above, byLevel[l]...)
	}
	sep = append(sep, byLevel[cut]...)
	sort.Ints(sep)
	parts = [][]int{}
	if len(below) > 0 {
		parts = append(parts, below)
	}
	if len(above) > 0 {
		parts = append(parts, above)
	}
	return parts, sep
}

// refSubgraphPeripheral finds an approximately eccentric vertex of the induced
// subgraph component containing vertices[0].
func refSubgraphPeripheral(m *sparse.Matrix, vertices []int, inSet []int32) int {
	cur := vertices[0]
	curEcc := -1
	dist := make(map[int]int, len(vertices))
	for iter := 0; iter < 6; iter++ {
		for k := range dist {
			delete(dist, k)
		}
		queue := []int{cur}
		dist[cur] = 0
		far, ecc := cur, 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if dist[v] > ecc {
				far, ecc = v, dist[v]
			}
			for _, w := range m.Col(v) {
				wi := int(w)
				if wi == v || inSet[wi] < 0 {
					continue
				}
				if _, ok := dist[wi]; !ok {
					dist[wi] = dist[v] + 1
					queue = append(queue, wi)
				}
			}
		}
		if ecc <= curEcc {
			break
		}
		curEcc, cur = ecc, far
	}
	return cur
}

// refInducedSubgraph extracts the pattern induced by vertices and the mapping
// back to original indices.
func refInducedSubgraph(m *sparse.Matrix, vertices []int) (*sparse.Matrix, []int, error) {
	local := make(map[int]int, len(vertices))
	for k, v := range vertices {
		local[v] = k
	}
	cols := make([][]int, len(vertices))
	for k, v := range vertices {
		col := []int{k}
		for _, w := range m.Col(v) {
			if lw, ok := local[int(w)]; ok && lw != k {
				col = append(col, lw)
			}
		}
		cols[k] = col
	}
	sub, err := sparse.New(len(vertices), cols)
	if err != nil {
		return nil, nil, err
	}
	back := make([]int, len(vertices))
	copy(back, vertices)
	return sub, back, nil
}
