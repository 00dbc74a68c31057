// Package tree implements the tree-shaped workflow model of Jacquelin,
// Marchal, Robert and Uçar, "On optimal tree traversals for sparse matrix
// factorization" (IPDPS 2011).
//
// A Tree is a rooted tree whose nodes are tasks. Every node i carries an
// input file of size F(i) exchanged with its parent and an execution file of
// size N(i). In the out-tree (top-down) view, a node may run once its parent
// has run, and running it materializes one output file per child. In the
// dual in-tree (bottom-up, multifrontal) view, a node may run once all its
// children have run, consuming their files and producing its own. Section
// III-C of the paper shows both views are equivalent under traversal
// reversal; helpers in this package convert between them.
//
// Processing node i needs
//
//	MemReq(i) = F(i) + N(i) + Σ_{j ∈ Children(i)} F(j)
//
// units of main memory in addition to any other resident files.
//
// Trees serialize to the textual .tree wire form (Write/Read, one node per
// line; NewDecoder streams multi-document corpora), which is how they
// travel to remote evaluation servers, and Digest computes a canonical,
// platform-independent content hash that keys the content-addressed result
// caches of internal/schedule.
package tree

import (
	"errors"
	"fmt"
)

// NoParent marks the root's parent slot.
const NoParent = -1

// Tree is an immutable rooted tree workflow. Construct one with New; the
// zero value is not usable.
type Tree struct {
	parent    []int32
	childPtr  []int32 // CSR offsets into childList, len = p+1
	childList []int32
	f         []int64 // input (communication) file sizes
	n         []int64 // execution file sizes; may be negative for model transforms
	root      int32
}

// New builds a tree from a parent vector: parent[i] is the parent of node i,
// and exactly one node must have parent NoParent (-1). f[i] and n[i] are the
// input and execution file sizes of node i. New validates that the parent
// vector describes a single connected rooted tree.
func New(parent []int, f, n []int64) (*Tree, error) {
	p := len(parent)
	if p == 0 {
		return nil, errors.New("tree: empty parent vector")
	}
	if len(f) != p || len(n) != p {
		return nil, fmt.Errorf("tree: size vectors have length %d, %d; want %d", len(f), len(n), p)
	}
	t := &Tree{
		parent: make([]int32, p),
		f:      make([]int64, p),
		n:      make([]int64, p),
	}
	copy(t.f, f)
	copy(t.n, n)
	return link(t, parent)
}

// link validates a parent vector for t, whose f and n vectors must already
// be filled, stores it in t.parent and builds the children adjacency. It
// is the single validation pass behind New and DecodeBinary: New passes
// the caller's []int, DecodeBinary decodes straight into t.parent and
// passes that, so neither copies the vectors twice.
func link[P int | int32](t *Tree, parent []P) (*Tree, error) {
	p := len(parent)
	t.root = NoParent
	counts := make([]int32, p+1)
	for i, par := range parent {
		switch {
		case par == NoParent:
			if t.root != NoParent {
				return nil, fmt.Errorf("tree: nodes %d and %d are both roots", t.root, i)
			}
			t.root = int32(i)
		case par < 0 || int(par) >= p:
			return nil, fmt.Errorf("tree: node %d has out-of-range parent %d", i, par)
		case int(par) == i:
			return nil, fmt.Errorf("tree: node %d is its own parent", i)
		default:
			counts[par+1]++
		}
		t.parent[i] = int32(par)
	}
	if t.root == NoParent {
		return nil, errors.New("tree: no root (no node with parent -1)")
	}
	if t.f[t.root] < 0 {
		return nil, fmt.Errorf("tree: root input file size %d is negative", t.f[t.root])
	}
	for i, fi := range t.f {
		if fi < 0 {
			return nil, fmt.Errorf("tree: node %d has negative input file size %d", i, fi)
		}
	}
	// Build CSR children adjacency.
	t.childPtr = counts
	for i := 1; i <= p; i++ {
		t.childPtr[i] += t.childPtr[i-1]
	}
	t.childList = make([]int32, t.childPtr[p])
	next := make([]int32, p)
	copy(next, t.childPtr[:p])
	for i, par := range parent {
		if par != NoParent {
			t.childList[next[par]] = int32(i)
			next[par]++
		}
	}
	// Connectivity: every node must reach the root without cycles.
	// A DFS from the root must visit all p nodes.
	seen := 0
	stack := []int32{t.root}
	visited := make([]bool, p)
	visited[t.root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen++
		for _, c := range t.childrenRaw(int(v)) {
			if visited[c] {
				return nil, fmt.Errorf("tree: node %d visited twice (cycle)", c)
			}
			visited[c] = true
			stack = append(stack, c)
		}
	}
	if seen != p {
		return nil, fmt.Errorf("tree: only %d of %d nodes reachable from root (cycle or forest)", seen, p)
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(parent []int, f, n []int64) *Tree {
	t, err := New(parent, f, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of nodes p.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node index.
func (t *Tree) Root() int { return int(t.root) }

// Parent returns the parent of node i, or NoParent for the root.
func (t *Tree) Parent(i int) int { return int(t.parent[i]) }

// F returns the size of the input file of node i (the file exchanged with
// its parent).
func (t *Tree) F(i int) int64 { return t.f[i] }

// N returns the size of the execution file of node i. It may be negative on
// trees obtained by the model transformations of Section III-C.
func (t *Tree) N(i int) int64 { return t.n[i] }

func (t *Tree) childrenRaw(i int) []int32 {
	return t.childList[t.childPtr[i]:t.childPtr[i+1]]
}

// NumChildren returns the number of children of node i.
func (t *Tree) NumChildren(i int) int {
	return int(t.childPtr[i+1] - t.childPtr[i])
}

// Child returns the k-th child of node i.
func (t *Tree) Child(i, k int) int {
	return int(t.childList[int(t.childPtr[i])+k])
}

// Children appends the children of node i to dst and returns the result.
// Pass nil to allocate a fresh slice.
func (t *Tree) Children(i int, dst []int) []int {
	for _, c := range t.childrenRaw(i) {
		dst = append(dst, int(c))
	}
	return dst
}

// IsLeaf reports whether node i has no children.
func (t *Tree) IsLeaf(i int) bool { return t.childPtr[i] == t.childPtr[i+1] }

// ChildFileSum returns Σ_{j ∈ Children(i)} F(j).
func (t *Tree) ChildFileSum(i int) int64 {
	var s int64
	for _, c := range t.childrenRaw(i) {
		s += t.f[c]
	}
	return s
}

// MemReq returns the memory requirement of node i per Equation (1):
// F(i) + N(i) + Σ_{j ∈ Children(i)} F(j).
func (t *Tree) MemReq(i int) int64 {
	return t.f[i] + t.n[i] + t.ChildFileSum(i)
}

// MaxMemReq returns max_i MemReq(i), the trivial lower bound on the memory
// needed by any traversal.
func (t *Tree) MaxMemReq() int64 {
	var m int64
	for i := 0; i < t.Len(); i++ {
		if r := t.MemReq(i); r > m {
			m = r
		}
	}
	return m
}

// TotalF returns Σ_i F(i), an upper bound on any reasonable memory value and
// on the I/O volume of a single-write schedule.
func (t *Tree) TotalF() int64 {
	var s int64
	for _, v := range t.f {
		s += v
	}
	return s
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int32, t.Len())
	best := int32(0)
	for _, v := range t.TopDown() {
		if v != t.Root() {
			depth[v] = depth[t.parent[v]] + 1
			if depth[v] > best {
				best = depth[v]
			}
		}
	}
	return int(best)
}

// TopDown returns the nodes in a preorder (parents before children) using a
// depth-first sweep. The result is a valid out-tree traversal order when
// memory is unlimited.
func (t *Tree) TopDown() []int {
	out := make([]int, 0, t.Len())
	stack := []int32{t.root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, int(v))
		kids := t.childrenRaw(int(v))
		for k := len(kids) - 1; k >= 0; k-- { // preserve child order in output
			stack = append(stack, kids[k])
		}
	}
	return out
}

// Postorder returns the nodes in depth-first postorder (children before
// parents, each subtree contiguous), following the stored child order.
func (t *Tree) Postorder() []int {
	out := make([]int, 0, t.Len())
	// Iterative DFS with an explicit "stage" to avoid recursion on deep chains.
	type frame struct {
		node int32
		next int32 // next child index to descend into
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{t.root, 0})
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := t.childrenRaw(int(fr.node))
		if int(fr.next) < len(kids) {
			c := kids[fr.next]
			fr.next++
			stack = append(stack, frame{c, 0})
			continue
		}
		out = append(out, int(fr.node))
		stack = stack[:len(stack)-1]
	}
	return out
}

// SubtreeSizes returns, for each node, the number of nodes in its subtree
// (itself included).
func (t *Tree) SubtreeSizes() []int {
	sz := make([]int, t.Len())
	for _, v := range t.Postorder() {
		sz[v]++
		if v != t.Root() {
			sz[t.parent[v]] += sz[v]
		}
	}
	return sz
}

// Leaves returns all leaf nodes in increasing index order.
func (t *Tree) Leaves() []int {
	var out []int
	for i := 0; i < t.Len(); i++ {
		if t.IsLeaf(i) {
			out = append(out, i)
		}
	}
	return out
}

// ParentVector returns a copy of the parent vector (NoParent for the root).
func (t *Tree) ParentVector() []int {
	out := make([]int, t.Len())
	for i, p := range t.parent {
		out[i] = int(p)
	}
	return out
}

// FVector returns a copy of the input file sizes.
func (t *Tree) FVector() []int64 {
	out := make([]int64, t.Len())
	copy(out, t.f)
	return out
}

// NVector returns a copy of the execution file sizes.
func (t *Tree) NVector() []int64 {
	out := make([]int64, t.Len())
	copy(out, t.n)
	return out
}

// WithWeights returns a tree with the same shape but new file sizes.
func (t *Tree) WithWeights(f, n []int64) (*Tree, error) {
	return New(t.ParentVector(), f, n)
}

// ReverseOrder returns the reverse permutation of order: if order is a valid
// bottom-up (in-tree) traversal, the result is a valid top-down (out-tree)
// traversal of the same tree and vice versa (Section III-C of the paper).
func ReverseOrder(order []int) []int {
	out := make([]int, len(order))
	for i := range order {
		out[i] = order[len(order)-1-i]
	}
	return out
}

// IsTopDownOrder reports whether order is a permutation of the nodes that
// schedules every node after its parent (precedence feasibility only; memory
// is not checked).
func (t *Tree) IsTopDownOrder(order []int) error {
	if len(order) != t.Len() {
		return fmt.Errorf("tree: order has %d entries, want %d", len(order), t.Len())
	}
	pos := make([]int, t.Len())
	for i := range pos {
		pos[i] = -1
	}
	for step, v := range order {
		if v < 0 || v >= t.Len() {
			return fmt.Errorf("tree: order entry %d out of range", v)
		}
		if pos[v] != -1 {
			return fmt.Errorf("tree: node %d appears twice in order", v)
		}
		pos[v] = step
	}
	for i := 0; i < t.Len(); i++ {
		if i != t.Root() && pos[t.Parent(i)] > pos[i] {
			return fmt.Errorf("tree: node %d scheduled before its parent %d", i, t.Parent(i))
		}
	}
	return nil
}

// IsBottomUpOrder reports whether order schedules every node after all of
// its children (precedence feasibility in the in-tree view).
func (t *Tree) IsBottomUpOrder(order []int) error {
	return t.IsTopDownOrder(ReverseOrder(order))
}
