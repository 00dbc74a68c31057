package ordering

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sparse"
)

// NestedDissectionOptions tunes the dissection recursion.
type NestedDissectionOptions struct {
	// LeafSize stops the recursion: parts at most this large are ordered
	// with minimum degree. Default 64.
	LeafSize int
}

// NestedDissection computes a nested-dissection ordering: the graph is
// recursively bisected by level-set separators (BFS from a
// pseudo-peripheral vertex, cutting at the median level); parts are ordered
// first, separators last, and small parts fall back to minimum degree.
// It is the substitute for MeTiS in the paper's pipeline and produces the
// same wide, balanced assembly trees that make traversal order matter.
//
// A part that is not connected is not dissected: it is ordered whole by
// minimum degree, like a part too shallow to split. On the corpus's grid
// and R-MAT matrices that covers 10–46% of the vertices; dissecting each
// component instead would change the orderings and the trees built from
// them.
//
// The whole recursion runs in one ndState: the parts are subranges of one
// vertex array that each bisection reorders in place, set membership and
// BFS visits are stamps, and each leaf is built in a reused CSC arena, so
// the cost is O(nnz) per recursion level instead of O(n) per bisection.
func NestedDissection(m *sparse.Matrix, opt NestedDissectionOptions) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: nested dissection needs a symmetric pattern")
	}
	if opt.LeafSize <= 0 {
		opt.LeafSize = 64
	}
	s := newNDState(m, opt.LeafSize)
	s.dissect(0, int32(m.N()))
	if err := IsPermutation(s.perm, m.N()); err != nil {
		return nil, fmt.Errorf("ordering: internal error: %w", err)
	}
	return s.perm, nil
}

// ndState is the working storage of one NestedDissection call.
type ndState struct {
	m        *sparse.Matrix
	leafSize int32
	perm     []int

	// verts holds every vertex once; a part is a subrange, in the order
	// the recursion produced it, and tmp is the stable counting sort's
	// output buffer.
	verts, tmp []int32

	// inSet[v] == setStamp marks the part being bisected or ordered;
	// seen[v] == seenStamp marks the vertices the current BFS reached,
	// at distance dist[v]. queue holds them in visiting order.
	inSet, seen         []int32
	setStamp, seenStamp int32
	dist, queue         []int32

	// levelStart is the counting sort's per-level offset table.
	levelStart []int32

	// The leaf arena: local[v] is v's index within the leaf, and leaf is
	// the leaf's off-diagonal pattern in CSC form over local indices.
	local []int32
	leaf  leafPattern

	// amd orders every leaf, reusing its buffers.
	amd amdState
}

// leafPattern is a leaf subgraph in CSC form over local indices, with the
// diagonal left out (AMD never reads it).
type leafPattern struct {
	n      int
	colPtr []int32
	rowIdx []int32
}

func (p *leafPattern) N() int            { return p.n }
func (p *leafPattern) Col(j int) []int32 { return p.rowIdx[p.colPtr[j]:p.colPtr[j+1]] }

func newNDState(m *sparse.Matrix, leafSize int) *ndState {
	n := m.N()
	work := make([]int32, 8*n+1)
	s := &ndState{
		m:          m,
		leafSize:   int32(min(leafSize, n)),
		perm:       make([]int, 0, n),
		verts:      work[:n],
		tmp:        work[n : 2*n],
		inSet:      work[2*n : 3*n],
		seen:       work[3*n : 4*n],
		dist:       work[4*n : 5*n],
		queue:      work[5*n : 6*n],
		local:      work[6*n : 7*n],
		levelStart: work[7*n:],
	}
	for v := range s.verts {
		s.verts[v] = int32(v)
	}
	return s
}

// dissect orders the part verts[lo:hi], appending it to perm: parts first,
// separator last.
func (s *ndState) dissect(lo, hi int32) {
	if lo == hi {
		return
	}
	if hi-lo <= s.leafSize {
		s.orderLeaf(lo, hi)
		return
	}
	sepLo, sepHi, ok := s.bisect(lo, hi)
	if !ok {
		s.orderLeaf(lo, hi) // could not split (e.g. a clique): order directly
		return
	}
	s.dissect(lo, sepLo)
	s.dissect(sepHi, hi)
	for _, v := range s.verts[sepLo:sepHi] {
		s.perm = append(s.perm, int(v))
	}
}

// markPart stamps verts[lo:hi] as the current part.
func (s *ndState) markPart(lo, hi int32) {
	if s.setStamp == math.MaxInt32 {
		clear(s.inSet)
		s.setStamp = 0
	}
	s.setStamp++
	for _, v := range s.verts[lo:hi] {
		s.inSet[v] = s.setStamp
	}
}

// bfs runs a breadth-first search from root inside the current part,
// visiting each vertex's neighbours in column order. It leaves the reached
// vertices in queue[:count] and their distances in dist, and returns the
// first vertex reached at the largest distance and that distance.
func (s *ndState) bfs(root int32) (far, ecc int32, count int) {
	if s.seenStamp == math.MaxInt32 {
		clear(s.seen)
		s.seenStamp = 0
	}
	s.seenStamp++
	s.seen[root], s.dist[root] = s.seenStamp, 0
	s.queue[0] = root
	count = 1
	far, ecc = root, 0
	for head := 0; head < count; head++ {
		v := s.queue[head]
		d := s.dist[v]
		if d > ecc {
			far, ecc = v, d
		}
		for _, w := range s.m.Col(int(v)) {
			if w == v || s.inSet[w] != s.setStamp || s.seen[w] == s.seenStamp {
				continue
			}
			s.seen[w], s.dist[w] = s.seenStamp, d+1
			s.queue[count] = w
			count++
		}
	}
	return far, ecc, count
}

// bisect splits the part verts[lo:hi] by the BFS level sets of its
// induced subgraph, rooted at a pseudo-peripheral vertex of the component
// of verts[lo]: it reorders the part in place into the levels below the
// cut, the cut level (the separator, sorted) and the levels above it,
// each in the part's order, and returns the separator's range. ok is false
// when the part cannot be split: it is disconnected, or fewer than three
// levels deep (a dense blob).
func (s *ndState) bisect(lo, hi int32) (sepLo, sepHi int32, ok bool) {
	s.markPart(lo, hi)
	// Pseudo-peripheral root: repeated BFS from the farthest vertex until
	// the eccentricity stops growing, at most six times. When the loop
	// stops early its last BFS was from the root, and those distances are
	// the levels.
	root, rootEcc := s.verts[lo], int32(-1)
	var maxLevel int32
	count, fromRoot := 0, false
	for iter := 0; iter < 6; iter++ {
		far, ecc, c := s.bfs(root)
		if ecc <= rootEcc {
			maxLevel, count, fromRoot = ecc, c, true
			break
		}
		root, rootEcc = far, ecc
	}
	if !fromRoot {
		_, maxLevel, count = s.bfs(root)
	}
	if count < int(hi-lo) || maxLevel < 2 {
		return 0, 0, false
	}
	// Stable counting sort of the part by level.
	start := s.levelStart[:maxLevel+2]
	clear(start)
	for _, v := range s.verts[lo:hi] {
		start[s.dist[v]+1]++
	}
	// Cut at the median level by vertex count.
	target := int32(count / 2)
	cut := int32(-1)
	for l := int32(1); l <= maxLevel+1; l++ {
		start[l] += start[l-1]
		if cut < 0 && start[l] >= target {
			cut = l - 1
		}
	}
	cut = max(1, min(cut, maxLevel-1))
	part := s.tmp[lo:hi]
	for _, v := range s.verts[lo:hi] {
		l := s.dist[v]
		part[start[l]] = v
		start[l]++
	}
	copy(s.verts[lo:hi], part)
	// start[l] now ends level l.
	sepLo, sepHi = lo+start[cut-1], lo+start[cut]
	slices.Sort(s.verts[sepLo:sepHi])
	return sepLo, sepHi, true
}

// orderLeaf orders the part verts[lo:hi] by minimum degree on its induced
// subgraph, whose local indices follow the part's order.
func (s *ndState) orderLeaf(lo, hi int32) {
	s.markPart(lo, hi)
	part := s.verts[lo:hi]
	for k, v := range part {
		s.local[v] = int32(k)
	}
	// Count each local column's off-diagonal entries, then fill by
	// scanning the columns in increasing order and appending k to the
	// column of each of its neighbours: the subgraph is symmetric, so that
	// transposed fill gives every column its own entries, sorted, with no
	// comparisons.
	p := &s.leaf
	n := len(part)
	p.n = n
	p.colPtr = zeroed(p.colPtr, n+1)
	for k, v := range part {
		for _, w := range s.m.Col(int(v)) {
			if w != v && s.inSet[w] == s.setStamp {
				p.colPtr[k+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		p.colPtr[k+1] += p.colPtr[k]
	}
	nnz := int(p.colPtr[n])
	p.rowIdx = slices.Grow(p.rowIdx[:0], nnz)[:nnz]
	next := s.tmp[lo:hi]
	copy(next, p.colPtr[:n])
	for k, v := range part {
		for _, w := range s.m.Col(int(v)) {
			if w != v && s.inSet[w] == s.setStamp {
				r := s.local[w]
				p.rowIdx[next[r]] = int32(k)
				next[r]++
			}
		}
	}
	a := &s.amd
	a.reset(p)
	a.eliminate()
	for _, k := range a.perm {
		s.perm = append(s.perm, int(part[k]))
	}
}
