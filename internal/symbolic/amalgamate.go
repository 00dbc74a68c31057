package symbolic

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/tree"
)

// AssemblyNode describes one node of the assembly tree before weights are
// attached: the set of amalgamated elimination-tree columns is summarized
// by its size η and the column count µ of the top (highest) column.
type AssemblyNode struct {
	// Top is the highest elimination-tree column amalgamated in the node.
	Top int
	// Eta is η, the number of amalgamated columns.
	Eta int
	// Mu is µ, the factor-column count of Top in the starting tree.
	Mu int64
}

// AssemblyOptions controls amalgamation.
type AssemblyOptions struct {
	// Relax is the per-node budget of relaxed (non-perfect) amalgamations:
	// each assembly node may acquire at most this many elimination-tree
	// columns by absorbing its densest children beyond the perfect merges.
	// The paper uses 1, 2, 4 and 16. Zero keeps only perfect amalgamations
	// (fundamental supernode chains).
	Relax int
}

// AssemblyResult is the weighted assembly tree plus the per-node summary.
type AssemblyResult struct {
	// Tree carries the paper's weights: F(i) = (µ−1)² is the contribution
	// block passed to the parent, N(i) = η² + 2η(µ−1) the extra working
	// storage of the frontal matrix. The tree is orientation-neutral: the
	// multifrontal method processes it bottom-up; by the reversal lemma the
	// same memory figures hold top-down.
	Tree *tree.Tree
	// Nodes aligns with tree node indices.
	Nodes []AssemblyNode
	// Columns lists, for every assembly node, its member elimination-tree
	// columns in increasing order (empty for a virtual root).
	Columns [][]int
}

// AssemblyTree runs the full symbolic pipeline on a symmetric permuted
// pattern: elimination tree, column counts, perfect + relaxed amalgamation,
// and weight assignment per Section VI-B. Disconnected matrices get a
// zero-weight virtual root joining the forest.
func AssemblyTree(m *sparse.Matrix, opt AssemblyOptions) (*AssemblyResult, error) {
	parent, err := EliminationTree(m)
	if err != nil {
		return nil, err
	}
	counts, err := ColumnCounts(m, parent)
	if err != nil {
		return nil, err
	}
	return Amalgamate(parent, counts, opt)
}

// Amalgamate builds the weighted assembly tree from an elimination forest
// and its column counts.
//
// Processing columns bottom-up:
//   - perfect amalgamation always fires: an only child whose column count
//     exceeds its parent's by exactly one belongs to the same supernode;
//   - then, while the node has used fewer than Relax relaxed merges, it
//     absorbs its densest remaining child (the one with the largest µ).
func Amalgamate(parent []int, counts []int64, opt AssemblyOptions) (*AssemblyResult, error) {
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
		if p != NoParent && (p < 0 || p >= n || p == j) {
			return nil, fmt.Errorf("symbolic: bad parent %d of %d", p, j)
		}
	}
	// Assembly state per representative column (the top column of a node).
	work := make([]int32, 5*n)
	eta := work[:n]      // columns amalgamated, at reps
	rep := work[n : 2*n] // union-find: etree column → assembly rep
	kids := kidLists{head: work[2*n : 3*n], tail: work[3*n : 4*n], next: work[4*n:]}
	for j := range rep {
		rep[j] = int32(j)
		eta[j] = 1
		kids.head[j], kids.tail[j] = -1, -1
	}
	find := func(x int32) int32 {
		for rep[x] != x {
			rep[x] = rep[rep[x]]
			x = rep[x]
		}
		return x
	}
	absorb := func(p, prev, c int32) {
		rep[c] = p
		eta[p] += eta[c]
		kids.absorb(p, prev, c)
	}
	childPtr, child := etreeChildren(parent)
	for _, pi := range etreePostorder(parent, childPtr, child) {
		p := int32(pi)
		etreeKids := child[childPtr[p]:childPtr[p+1]]
		// Children assembly nodes of p (already final).
		for _, c := range etreeKids {
			kids.push(p, find(c))
		}
		// Perfect amalgamation: the child attaches at column p itself, is
		// p's only elimination-tree child, and its top column has exactly
		// one more factor entry than column p — the two columns share the
		// below-diagonal structure (a fundamental supernode edge). Each
		// etree edge is examined once, when its upper endpoint is visited.
		if len(etreeKids) == 1 && counts[etreeKids[0]] == counts[p]+1 {
			absorb(p, -1, kids.head[p])
		}
		// Relaxed amalgamation: absorb the densest children as long as the
		// number of columns acquired this way stays within the per-node
		// budget. Bounding the acquired columns (rather than the merge
		// count) prevents chains from collapsing transitively into a single
		// node as the budget is spent bottom-up. Ties go to the child met
		// first in list order.
		budget := int32(opt.Relax)
		for budget > 0 && kids.head[p] >= 0 {
			best, bestPrev := int32(-1), int32(-1)
			for prev, c := int32(-1), kids.head[p]; c >= 0; prev, c = c, kids.next[c] {
				if eta[c] <= budget && (best < 0 || counts[c] > counts[best]) {
					best, bestPrev = c, prev
				}
			}
			if best < 0 {
				break
			}
			budget -= eta[best]
			absorb(p, bestPrev, best)
		}
	}
	// Collect final assembly nodes. After flattening rep, rep[j] is j's
	// node's top column; index[r] numbers the reps in increasing order.
	index := kids.head // free after the loop
	nreps, nroots := 0, 0
	for j := 0; j < n; j++ {
		rep[j] = find(int32(j))
		if rep[j] == int32(j) {
			index[j] = int32(nreps)
			nreps++
			if parent[j] == NoParent {
				nroots++
			}
		}
	}
	// Parents in the assembly tree; roots get a virtual root if several.
	size := nreps
	if nroots > 1 {
		size++
	}
	asmParent := make([]int, nreps, size)
	nodes := make([]AssemblyNode, nreps, size)
	columns := make([][]int, nreps, size)
	f := make([]int64, nreps, size)
	nw := make([]int64, nreps, size)
	// Columns are carved from one n-entry buffer, each node's η-entry
	// segment filled in increasing column order.
	colBuf := make([]int, n)
	fill := kids.tail // free after the loop
	off := int32(0)
	for j := 0; j < n; j++ {
		r := rep[j]
		if r != int32(j) {
			continue
		}
		k := index[j]
		fill[k] = off
		columns[k] = colBuf[off : off+eta[r] : off+eta[r]]
		off += eta[r]
		if p := parent[j]; p == NoParent {
			asmParent[k] = tree.NoParent
		} else {
			asmParent[k] = int(index[rep[p]])
		}
		mu := counts[r]
		h := int64(eta[r])
		nodes[k] = AssemblyNode{Top: j, Eta: int(eta[r]), Mu: mu}
		f[k] = (mu - 1) * (mu - 1)
		nw[k] = h*h + 2*h*(mu-1)
	}
	for j := 0; j < n; j++ {
		k := index[rep[j]]
		colBuf[fill[k]] = j
		fill[k]++
	}
	// A root's contribution block leaves the system: it carries no file to
	// a parent. Several roots are joined by a virtual zero-weight root.
	for k := range asmParent {
		if asmParent[k] == tree.NoParent {
			f[k] = 0
			if nroots > 1 {
				asmParent[k] = nreps
			}
		}
	}
	if nroots > 1 {
		nodes = append(nodes, AssemblyNode{Top: -1})
		columns = append(columns, nil)
		f = append(f, 0)
		nw = append(nw, 0)
		asmParent = append(asmParent, tree.NoParent)
	}
	tr, err := tree.New(asmParent, f, nw)
	if err != nil {
		return nil, fmt.Errorf("symbolic: assembly tree construction: %w", err)
	}
	return &AssemblyResult{Tree: tr, Nodes: nodes, Columns: columns}, nil
}

// kidLists holds every assembly node's children as an intrusive singly
// linked list over one next array: a node sits in at most one list at a
// time, so next[c] is c's successor in its parent's list. Appending,
// unlinking a child and splicing the child's own list onto the end are
// O(1) and keep list order exactly, which the densest-child tie-break
// depends on.
type kidLists struct {
	head, tail, next []int32
}

// push appends c to p's list.
func (l *kidLists) push(p, c int32) {
	l.next[c] = -1
	if l.tail[p] < 0 {
		l.head[p] = c
	} else {
		l.next[l.tail[p]] = c
	}
	l.tail[p] = c
}

// absorb unlinks c, whose predecessor in p's list is prev (−1 if c is the
// head), and appends c's own list to p's.
func (l *kidLists) absorb(p, prev, c int32) {
	if prev < 0 {
		l.head[p] = l.next[c]
	} else {
		l.next[prev] = l.next[c]
	}
	if l.tail[p] == c {
		l.tail[p] = prev
	}
	if l.head[c] >= 0 {
		if l.tail[p] < 0 {
			l.head[p] = l.head[c]
		} else {
			l.next[l.tail[p]] = l.head[c]
		}
		l.tail[p] = l.tail[c]
		l.head[c], l.tail[c] = -1, -1
	}
}
