package ordering

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// This file preserves the slice-of-slices sparse.Matrix.Permute and
// symbolic.Amalgamate verbatim (qualified for this package), as the
// references the front-end differential tests and FuzzNDVsReference pin
// the flat-array versions against. They sit beside the nested-dissection
// reference because one fuzz target chains all three stages, and a test
// file is visible only to its own package's tests.
//
// refPermute builds a [][]int of relabelled columns and lets sparse.New
// sort each one with sort.Slice. refAmalgamate keeps per-node [][]int32
// etree and assembly child lists and a map from representative column to
// node index, and appends every node's Columns one entry at a time.

// refPermute is the reference sparse.Matrix.Permute.
func refPermute(m *sparse.Matrix, perm []int) (*sparse.Matrix, error) {
	if len(perm) != m.N() {
		return nil, fmt.Errorf("sparse: permutation has %d entries, want %d", len(perm), m.N())
	}
	inv := make([]int, m.N())
	for k := range inv {
		inv[k] = -1
	}
	for k, old := range perm {
		if old < 0 || old >= m.N() {
			return nil, fmt.Errorf("sparse: permutation entry %d out of range", old)
		}
		if inv[old] != -1 {
			return nil, fmt.Errorf("sparse: permutation repeats %d", old)
		}
		inv[old] = k
	}
	cols := make([][]int, m.N())
	for k, old := range perm {
		src := m.Col(old)
		col := make([]int, len(src))
		for x, i := range src {
			col[x] = inv[i]
		}
		cols[k] = col
	}
	return sparse.New(m.N(), cols)
}

// refAmalgamate is the reference symbolic.Amalgamate.
func refAmalgamate(parent []int, counts []int64, opt symbolic.AssemblyOptions) (*symbolic.AssemblyResult, error) {
	n := len(parent)
	if len(counts) != n {
		return nil, fmt.Errorf("symbolic: counts has %d entries, want %d", len(counts), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("symbolic: empty elimination tree")
	}
	if opt.Relax < 0 {
		return nil, fmt.Errorf("symbolic: negative relax %d", opt.Relax)
	}
	for j, p := range parent {
		if p != symbolic.NoParent && (p < 0 || p >= n || p == j) {
			return nil, fmt.Errorf("symbolic: bad parent %d of %d", p, j)
		}
	}
	// Assembly state per representative column (the top column of a node).
	eta := make([]int32, n)
	kids := make([][]int32, n) // children assembly reps, maintained at reps
	rep := make([]int32, n)    // union-find: etree column → assembly rep
	for j := range rep {
		rep[j] = int32(j)
		eta[j] = 1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for rep[x] != x {
			rep[x] = rep[rep[x]]
			x = rep[x]
		}
		return x
	}
	post := symbolic.EtreePostorder(parent)
	etreeKids := make([][]int32, n)
	for j, p := range parent {
		if p != symbolic.NoParent {
			etreeKids[p] = append(etreeKids[p], int32(j))
		}
	}
	for _, pi := range post {
		p := int32(pi)
		// Children assembly nodes of p (already final).
		for _, c := range etreeKids[p] {
			kids[p] = append(kids[p], find(c))
		}
		absorb := func(idx int) {
			c := kids[p][idx]
			rep[c] = p
			eta[p] += eta[c]
			kids[p] = append(kids[p][:idx], kids[p][idx+1:]...)
			kids[p] = append(kids[p], kids[c]...)
			kids[c] = nil
		}
		// Perfect amalgamation: the child attaches at column p itself, is
		// p's only elimination-tree child, and its top column has exactly
		// one more factor entry than column p — the two columns share the
		// below-diagonal structure (a fundamental supernode edge). Each
		// etree edge is examined once, when its upper endpoint is visited.
		if len(etreeKids[p]) == 1 && counts[etreeKids[p][0]] == counts[p]+1 {
			absorb(0)
		}
		// Relaxed amalgamation: absorb the densest children as long as the
		// number of columns acquired this way stays within the per-node
		// budget. Bounding the acquired columns (rather than the merge
		// count) prevents chains from collapsing transitively into a single
		// node as the budget is spent bottom-up.
		budget := int32(opt.Relax)
		for budget > 0 && len(kids[p]) > 0 {
			di := -1
			for i := range kids[p] {
				c := kids[p][i]
				if eta[c] > budget {
					continue
				}
				if di < 0 || counts[c] > counts[kids[p][di]] {
					di = i
				}
			}
			if di < 0 {
				break
			}
			budget -= eta[kids[p][di]]
			absorb(di)
		}
	}
	// Collect final assembly nodes.
	var reps []int32
	for j := 0; j < n; j++ {
		if find(int32(j)) == int32(j) {
			reps = append(reps, int32(j))
		}
	}
	asmIndex := make(map[int32]int, len(reps))
	for k, r := range reps {
		asmIndex[r] = k
	}
	// Parents in the assembly tree; count roots to decide on a virtual root.
	asmParent := make([]int, len(reps))
	var roots []int
	for k, r := range reps {
		p := parent[r]
		if p == symbolic.NoParent {
			asmParent[k] = tree.NoParent
			roots = append(roots, k)
		} else {
			asmParent[k] = asmIndex[find(int32(p))]
		}
	}
	columns := make([][]int, len(reps))
	for j := 0; j < n; j++ {
		k := asmIndex[find(int32(j))]
		columns[k] = append(columns[k], j)
	}
	nodes := make([]symbolic.AssemblyNode, len(reps))
	f := make([]int64, len(reps))
	nw := make([]int64, len(reps))
	for k, r := range reps {
		mu := counts[r]
		h := int64(eta[r])
		nodes[k] = symbolic.AssemblyNode{Top: int(r), Eta: int(eta[r]), Mu: mu}
		f[k] = (mu - 1) * (mu - 1)
		nw[k] = h*h + 2*h*(mu-1)
	}
	if len(roots) > 1 {
		// Virtual zero-weight root joining the forest.
		vr := len(nodes)
		nodes = append(nodes, symbolic.AssemblyNode{Top: -1})
		columns = append(columns, nil)
		f = append(f, 0)
		nw = append(nw, 0)
		for _, k := range roots {
			asmParent[k] = vr
			f[k] = 0 // each component's final result leaves the system
		}
		asmParent = append(asmParent, tree.NoParent)
	} else {
		// The root's contribution block leaves the system; it carries no
		// file to a parent.
		f[roots[0]] = 0
	}
	tr, err := tree.New(asmParent, f, nw)
	if err != nil {
		return nil, fmt.Errorf("symbolic: assembly tree construction: %w", err)
	}
	return &symbolic.AssemblyResult{Tree: tr, Nodes: nodes, Columns: columns}, nil
}
