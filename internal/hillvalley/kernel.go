package hillvalley

import (
	"sync"

	"repro/internal/tree"
)

// seg is the internal segment representation: a hill–valley pair plus the
// rope of nodes executed during the segment (an index into the kernel's
// rope arena, or noRope when order tracking is off).
type seg struct {
	hill, valley int64
	rope         int32
}

// hillValley implements hillValleyer for the shared suffix-index pass.
func (s seg) hillValley() (int64, int64) { return s.hill, s.valley }

// ropeNode is one node of the arena-allocated rope: a leaf holds one tree
// node, an inner node concatenates two ropes. Indices into the arena slice
// replace pointers so the whole rope store is reusable across runs.
type ropeNode struct {
	left, right int32 // child rope indices; noRope on leaves
	leaf        int32 // tree node on leaves; -1 on inner nodes
}

const noRope = int32(-1)

// heapEntry is one child of the current combine in the k-way merge heap,
// keyed by the (hill − valley) of the child's next unmerged segment.
type heapEntry struct {
	diff  int64
	child int32
}

// mergesBefore orders the heap: larger (hill − valley) first, ties broken
// toward the smaller child ordinal. Within one child (hill − valley) is
// non-increasing by canonical construction, so this pop order is exactly
// the stable sort on decreasing (hill − valley) over the segments gathered
// in child order — the merge is bit-identical to the original
// sort.SliceStable implementation.
func mergesBefore(a, b heapEntry) bool {
	return a.diff > b.diff || (a.diff == b.diff && a.child < b.child)
}

// frame is one level of the iterative postorder walk.
type frame struct {
	node int32
	next int32 // next child ordinal to descend into
}

// Kernel computes canonical hill–valley profiles and Liu-optimal
// traversals with reusable internal buffers: after a warm-up run, Profile
// performs no steady-state allocations beyond its result. The zero Kernel
// is ready to use. A Kernel is not safe for concurrent use; the
// package-level Profile and Exact draw from a pool and are.
type Kernel struct {
	segs   []seg   // stack of live subtree profiles, postorder-aligned
	off    []int32 // per node: start of its profile in segs
	cnt    []int32 // per node: segment count of its profile
	raw    []seg   // merge scratch, execution order
	heap   []heapEntry
	pos    []int32 // per child ordinal: cursor into segs
	end    []int32 // per child ordinal: end of the child's profile
	parked []int64 // per child ordinal: current parked valley

	hillIdx []int32 // canonicalization scratch (suffix maxima indices)
	valIdx  []int32 // canonicalization scratch (suffix minima indices)

	ropes  []ropeNode
	frames []frame // postorder walk scratch
	flat   []int32 // rope flattening stack
}

// Profile appends the canonical hill–valley profile of the whole tree
// (bottom-up view) to dst and returns it: hills are non-increasing,
// valleys non-decreasing, the first hill is the tree's minimum memory and
// the last valley is the root's retained file.
func (k *Kernel) Profile(t *tree.Tree, dst []Segment) []Segment {
	k.run(t, false)
	for _, s := range k.rootSegs(t) {
		dst = append(dst, Segment{Hill: s.hill, Valley: s.valley})
	}
	return dst
}

// Exact runs Liu's exact MinMemory algorithm: it returns the minimum
// memory over all traversals of t and appends to order a bottom-up
// (in-tree) traversal achieving it. Reverse the order with
// tree.ReverseOrder for the top-down view.
func (k *Kernel) Exact(t *tree.Tree, order []int) (int64, []int) {
	k.run(t, true)
	segs := k.rootSegs(t)
	// Hill of the first canonical segment is the tree's minimum memory.
	mem := segs[0].hill
	for _, s := range segs {
		order = k.appendRope(s.rope, order)
	}
	return mem, order
}

// rootSegs returns the root profile region of the segment stack.
func (k *Kernel) rootSegs(t *tree.Tree) []seg {
	root := t.Root()
	return k.segs[k.off[root] : k.off[root]+int32(k.cnt[root])]
}

// run computes the profile of every subtree bottom-up. Live profiles form
// a stack aligned with the postorder walk: when a node is combined, its
// children's profiles sit contiguously on top in child order, and the
// combine replaces them in place by the node's own profile.
func (k *Kernel) run(t *tree.Tree, track bool) {
	p := t.Len()
	k.segs = k.segs[:0]
	k.ropes = k.ropes[:0]
	if cap(k.off) < p {
		k.off = make([]int32, p)
		k.cnt = make([]int32, p)
	}
	k.off, k.cnt = k.off[:p], k.cnt[:p]
	k.frames = append(k.frames[:0], frame{node: int32(t.Root())})
	for len(k.frames) > 0 {
		fr := &k.frames[len(k.frames)-1]
		v := int(fr.node)
		if int(fr.next) < t.NumChildren(v) {
			c := t.Child(v, int(fr.next))
			fr.next++
			k.frames = append(k.frames, frame{node: int32(c)})
			continue
		}
		k.frames = k.frames[:len(k.frames)-1]
		k.combine(t, v, track)
	}
}

// combine builds the canonical profile of the subtree rooted at v from the
// children profiles on top of the segment stack, releasing them.
func (k *Kernel) combine(t *tree.Tree, v int, track bool) {
	nc := t.NumChildren(v)
	if nc == 0 {
		k.off[v] = int32(len(k.segs))
		k.cnt[v] = 1
		k.segs = append(k.segs, seg{hill: t.MemReq(v), valley: t.F(v), rope: k.leafRope(v, track)})
		return
	}
	if nc == 1 {
		k.combineOnly(t, v, track)
		return
	}
	if nc > cap(k.pos) {
		k.pos = make([]int32, nc)
		k.end = make([]int32, nc)
		k.parked = make([]int64, nc)
	}
	k.pos, k.end, k.parked = k.pos[:nc], k.end[:nc], k.parked[:nc]
	base := int(k.off[t.Child(v, 0)])
	k.heap = k.heap[:0]
	for c := 0; c < nc; c++ {
		child := t.Child(v, c)
		k.pos[c] = k.off[child]
		k.end[c] = k.off[child] + k.cnt[child]
		k.parked[c] = 0
		head := &k.segs[k.pos[c]]
		k.heapPush(heapEntry{diff: head.hill - head.valley, child: int32(c)})
	}
	// Replay the k-way merge, turning each child's subtree-local hills into
	// absolute peaks over sum, the Σ of the children's current valleys.
	k.raw = k.raw[:0]
	var sum int64
	for len(k.heap) > 0 {
		c := int(k.heapPop().child)
		s := k.segs[k.pos[c]]
		prev := k.parked[c]
		peak := sum - prev + s.hill
		sum += s.valley - prev
		k.parked[c] = s.valley
		k.raw = append(k.raw, seg{hill: peak, valley: sum, rope: s.rope})
		if k.pos[c]++; k.pos[c] < k.end[c] {
			head := &k.segs[k.pos[c]]
			k.heapPush(heapEntry{diff: head.hill - head.valley, child: int32(c)})
		}
	}
	// The node's own step: all children files resident (sum = Σ f_c), plus
	// f(v) and n(v); afterwards only f(v) remains.
	k.raw = append(k.raw, seg{hill: sum + t.F(v) + t.N(v), valley: t.F(v), rope: k.leafRope(v, track)})
	// Re-canonicalize in place of the released children profiles.
	k.segs = k.segs[:base]
	k.off[v] = int32(base)
	k.canonAppend(track)
	k.cnt[v] = int32(len(k.segs) - base)
}

// combineOnly is combine for a node with a single child. The merge of one
// profile is the identity — every peak is the child's own hill and the
// running sum ends at the child's last valley — and the child's canonical
// profile already sits on top of the segment stack. Re-canonicalizing it
// with the node's step (H, V) appended keeps every leading segment with
// hill ≥ H and valley ≤ V unchanged; since hills are non-increasing and
// valleys non-decreasing, the others form a suffix, which collapses with
// the step into one segment (max(first such hill, H), V). Popping that
// suffix in place makes the combine amortised O(1) per node, where the
// general combine copies the whole profile, so a path costs O(p) rather
// than O(p²). Segments and ropes are those canonAppend would produce.
func (k *Kernel) combineOnly(t *tree.Tree, v int, track bool) {
	base := k.off[t.Child(v, 0)]
	hill := k.segs[len(k.segs)-1].valley + t.F(v) + t.N(v)
	valley := t.F(v)
	leaf := k.leafRope(v, track)
	j := len(k.segs)
	for j > int(base) && (k.segs[j-1].hill < hill || k.segs[j-1].valley > valley) {
		j--
	}
	r := leaf
	if j < len(k.segs) {
		hill = max(hill, k.segs[j].hill)
		r = k.segs[j].rope
		if track {
			for _, s := range k.segs[j+1:] {
				r = k.concatRopes(r, s.rope)
			}
			r = k.concatRopes(r, leaf)
		}
	}
	k.segs = append(k.segs[:j], seg{hill: hill, valley: valley, rope: r})
	k.off[v] = base
	k.cnt[v] = int32(len(k.segs)) - base
}

// canonAppend canonicalizes the raw scratch onto the segment stack,
// concatenating segment ropes when order tracking is on.
func (k *Kernel) canonAppend(track bool) {
	m := len(k.raw)
	if cap(k.hillIdx) < m {
		k.hillIdx = make([]int32, m)
		k.valIdx = make([]int32, m)
	}
	hillIdx, valIdx := k.hillIdx[:m], k.valIdx[:m]
	fillSuffixIndices(k.raw, hillIdx, valIdx)
	i := 0
	for i < m {
		a := int(hillIdx[i])
		b := int(valIdx[a])
		r := k.raw[i].rope
		if track {
			for j := i + 1; j <= b; j++ {
				r = k.concatRopes(r, k.raw[j].rope)
			}
		}
		k.segs = append(k.segs, seg{hill: k.raw[a].hill, valley: k.raw[b].valley, rope: r})
		i = b + 1
	}
}

// leafRope allocates a single-node rope in the arena, or noRope when order
// tracking is off.
func (k *Kernel) leafRope(v int, track bool) int32 {
	if !track {
		return noRope
	}
	k.ropes = append(k.ropes, ropeNode{left: noRope, right: noRope, leaf: int32(v)})
	return int32(len(k.ropes) - 1)
}

// concatRopes allocates the concatenation of two ropes in the arena.
func (k *Kernel) concatRopes(a, b int32) int32 {
	k.ropes = append(k.ropes, ropeNode{left: a, right: b, leaf: -1})
	return int32(len(k.ropes) - 1)
}

// appendRope flattens rope r into dst in left-to-right order using an
// explicit stack: ropes can be deep on chain-like trees.
func (k *Kernel) appendRope(r int32, dst []int) []int {
	k.flat = append(k.flat[:0], r)
	for len(k.flat) > 0 {
		cur := k.ropes[k.flat[len(k.flat)-1]]
		k.flat = k.flat[:len(k.flat)-1]
		if cur.leaf >= 0 {
			dst = append(dst, int(cur.leaf))
			continue
		}
		// Push right first so left is emitted first.
		k.flat = append(k.flat, cur.right, cur.left)
	}
	return dst
}

// heapPush inserts e into the merge heap.
func (k *Kernel) heapPush(e heapEntry) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !mergesBefore(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

// heapPop removes and returns the next entry in merge order.
func (k *Kernel) heapPop() heapEntry {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		l, r, best := 2*i+1, 2*i+2, i
		if l < last && mergesBefore(k.heap[l], k.heap[best]) {
			best = l
		}
		if r < last && mergesBefore(k.heap[r], k.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		k.heap[i], k.heap[best] = k.heap[best], k.heap[i]
		i = best
	}
	return top
}

// kernels pools Kernel instances for the package-level entry points, so
// concurrent batch evaluation reuses warm buffers instead of reallocating
// per run.
var kernels = sync.Pool{New: func() any { return new(Kernel) }}

// Profile computes the canonical hill–valley profile of the whole tree
// (bottom-up view) using a pooled kernel. Safe for concurrent use.
func Profile(t *tree.Tree) []Segment {
	k := kernels.Get().(*Kernel)
	out := k.Profile(t, make([]Segment, 0, 4))
	kernels.Put(k)
	return out
}

// Exact runs Liu's exact MinMemory algorithm using a pooled kernel: the
// minimum memory over all traversals and a bottom-up (in-tree) traversal
// achieving it. Safe for concurrent use.
func Exact(t *tree.Tree) (int64, []int) {
	k := kernels.Get().(*Kernel)
	mem, order := k.Exact(t, make([]int, 0, t.Len()))
	kernels.Put(k)
	return mem, order
}
