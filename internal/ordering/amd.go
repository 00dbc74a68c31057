package ordering

import (
	"fmt"

	"repro/internal/sparse"
)

// AMD computes an approximate-minimum-degree ordering of a symmetric
// pattern (the diagonal is ignored), following Amestoy, Davis and Duff:
// the quotient graph lives in one flat int32 arena, pivots are picked from
// degree-bucket lists (no heap, no stale entries), adjacent elements are
// absorbed aggressively, indistinguishable variables are detected by
// adjacency-list hashing and merged into supervariables, and updated
// degrees are the ADD approximate external degree bound
//
//	d̄ᵢ = min(n − |eliminated|, d̄ᵢ + |Lme\i|, |Aᵢ live| + |Lme\i| + Σₑ |Lₑ\Lme|)
//
// rather than an exact reach scan. The returned new-to-old permutation
// lists every original column in elimination order (members of a merged
// supervariable are emitted together, which is exactly how minimum degree
// with supervariables eliminates them).
func AMD(m *sparse.Matrix) ([]int, error) {
	if !m.IsSymmetric() {
		return nil, fmt.Errorf("ordering: minimum degree needs a symmetric pattern")
	}
	a := newAMDState(m)
	a.eliminate()
	return a.perm, nil
}

// amdState is the quotient graph. Node i is, over its lifetime, a variable
// (a not-yet-eliminated column, possibly a supervariable standing for
// several indistinguishable columns), then either an element (the pivot's
// clique, named after the pivot) or dead (absorbed into a supervariable or
// an element). A dead node has no list (pe < 0), and an element's w
// tells an absorbed one from a live one.
type amdState struct {
	n int

	// iw is the flat arena. A variable i's list is
	// iw[pe[i] : pe[i]+len[i]]: first elen[i] adjacent elements, then
	// len[i]−elen[i] adjacent variables. An element e's list is its
	// variables Le, iw[pe[e] : pe[e]+len[e]]. Lists may contain dead
	// entries (nv == 0), skipped on read; pe[i] < 0 means i has no list.
	iw    []int32
	pe    []int32
	ln    []int32 // len is a builtin; ln[i] is the list length
	elen  []int32
	pfree int32 // arena high-water mark; [pfree:] is free

	// nv[i] is the supervariable size (original columns represented).
	// While a pivot is being processed, members of its Lme are flagged by
	// negating nv. nv[i] == 0 marks a dead node.
	nv []int32
	// degree[i] is the ADD approximate external degree of a variable (in
	// original-column units), or |Le| (same units) for an element.
	degree []int32

	// Degree buckets: head[d] is the first variable of degree d, linked by
	// dnext/dprev; mindeg is a lower bound on the smallest occupied bucket.
	head   []int32
	dnext  []int32
	dprev  []int32
	mindeg int32

	// w is the element workspace of AMD's two-scan set-difference trick:
	// after scan 1, w[e]−wflg = |Le \ Lme| for every element e adjacent to
	// Lme. It also marks an element's liveness, as in SuiteSparse AMD: an
	// element is born with w = 1, every later value is at least wflg ≥ 2,
	// and absorption sets w = 0, so an element list entry with w == 0 is
	// absorbed. int64 so wflg never wraps.
	w    []int64
	wflg int64

	// Supervariable detection: hash buckets over the just-updated
	// variables, plus each variable's hash value.
	hhead []int32
	hnext []int32
	hash  []uint32

	// Member lists: the original columns a supervariable stands for, in
	// merge order. memberNext chains originals; head/tail live per node.
	mhead, mtail, mnext []int32

	// scratch degree accumulated during scan 2, finalized after mass
	// eliminations settle.
	scratch []int32

	perm []int
	nel  int32 // original columns eliminated so far
}

const amdEmpty = int32(-1)

// pattern is the read-only view of a symmetric pattern AMD starts from: a
// *sparse.Matrix, or a leaf subgraph in nested dissection's arena. Only
// off-diagonal entries are read, in column order.
type pattern interface {
	N() int
	Col(j int) []int32
}

func newAMDState(m pattern) *amdState {
	a := &amdState{}
	a.reset(m)
	return a
}

// reset loads pattern m, reusing a's buffers where they are large enough,
// so one state can order many small patterns (nested dissection's leaves).
// Every array starts as a fresh allocation would: zeroed at its exact
// length, then initialized.
func (a *amdState) reset(m pattern) {
	n := m.N()
	// Count off-diagonal entries to size the arena: the initial lists plus
	// slack for new element lists before the first garbage collection.
	nz := 0
	for j := 0; j < n; j++ {
		col := m.Col(j)
		nz += len(col)
		for _, i := range col {
			if int(i) == j {
				nz--
			}
		}
	}
	perm := a.perm[:0]
	if cap(perm) < n {
		perm = make([]int, 0, n)
	}
	*a = amdState{
		n:       n,
		iw:      zeroed(a.iw, nz+nz/5+n+1),
		pe:      zeroed(a.pe, n),
		ln:      zeroed(a.ln, n),
		elen:    zeroed(a.elen, n),
		nv:      zeroed(a.nv, n),
		degree:  zeroed(a.degree, n),
		head:    zeroed(a.head, n+1),
		dnext:   zeroed(a.dnext, n),
		dprev:   zeroed(a.dprev, n),
		w:       zeroed(a.w, n),
		wflg:    2,
		hhead:   zeroed(a.hhead, n),
		hnext:   zeroed(a.hnext, n),
		hash:    zeroed(a.hash, n),
		mhead:   zeroed(a.mhead, n),
		mtail:   zeroed(a.mtail, n),
		mnext:   zeroed(a.mnext, n),
		scratch: zeroed(a.scratch, n),
		perm:    perm,
	}

	for d := range a.head {
		a.head[d] = amdEmpty
	}
	for i := range a.hhead {
		a.hhead[i] = amdEmpty
	}
	p := int32(0)
	for j := 0; j < n; j++ {
		a.pe[j] = p
		for _, i := range m.Col(j) {
			if int(i) != j {
				a.iw[p] = i
				p++
			}
		}
		a.ln[j] = p - a.pe[j]
		a.elen[j] = 0
		a.nv[j] = 1
		a.degree[j] = a.ln[j]
		a.mhead[j], a.mtail[j] = int32(j), int32(j)
		a.mnext[j] = amdEmpty
		a.dlistInsert(int32(j), a.degree[j])
	}
	a.pfree = p
	a.mindeg = 0
}

// zeroed returns a zeroed slice of length n, reusing buf's storage when it
// has the capacity.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// dlistInsert puts variable i at the head of degree bucket d.
func (a *amdState) dlistInsert(i, d int32) {
	a.dprev[i] = amdEmpty
	a.dnext[i] = a.head[d]
	if a.head[d] != amdEmpty {
		a.dprev[a.head[d]] = int32(i)
	}
	a.head[d] = i
	if d < a.mindeg {
		a.mindeg = d
	}
}

// dlistRemove unlinks variable i from degree bucket d.
func (a *amdState) dlistRemove(i, d int32) {
	if a.dprev[i] != amdEmpty {
		a.dnext[a.dprev[i]] = a.dnext[i]
	} else {
		a.head[d] = a.dnext[i]
	}
	if a.dnext[i] != amdEmpty {
		a.dprev[a.dnext[i]] = a.dprev[i]
	}
}

// emit appends node i's member columns to the permutation.
func (a *amdState) emit(i int32) {
	for c := a.mhead[i]; c != amdEmpty; c = a.mnext[c] {
		a.perm = append(a.perm, int(c))
	}
	a.mhead[i] = amdEmpty
}

// appendMembers moves j's member list onto i's.
func (a *amdState) appendMembers(i, j int32) {
	if a.mhead[j] == amdEmpty {
		return
	}
	if a.mhead[i] == amdEmpty {
		a.mhead[i] = a.mhead[j]
	} else {
		a.mnext[a.mtail[i]] = a.mhead[j]
	}
	a.mtail[i] = a.mtail[j]
	a.mhead[j] = amdEmpty
}

// need ensures the arena has room for count more entries at pfree,
// garbage-collecting the live lists (and growing the arena if compaction
// alone is not enough).
func (a *amdState) need(count int32) {
	if int(a.pfree)+int(count) <= len(a.iw) {
		return
	}
	a.collect()
	if int(a.pfree)+int(count) > len(a.iw) {
		grown := make([]int32, int(a.pfree)+int(count)+len(a.iw)/2)
		copy(grown, a.iw[:a.pfree])
		a.iw = grown
	}
}

// collect compacts every live list to the front of the arena. Lists are
// already ordered by pe (lists are only ever written at the top of the
// arena, and rewrites happen in place), so one sweep in pe order suffices.
func (a *amdState) collect() {
	// Gather live nodes with lists, in pe order. Since every list was
	// allocated at a then-current top of arena and only shrinks in place,
	// pe order is allocation order; an insertion sort over mostly-sorted
	// input would be O(n²) in the worst case, so do a proper sort of the
	// indices by pe.
	live := make([]int32, 0, a.n)
	for i := int32(0); i < int32(a.n); i++ {
		if a.pe[i] >= 0 && a.ln[i] > 0 { // dead nodes have pe < 0
			live = append(live, i)
		}
	}
	// Counting-free sort by pe via a simple merge-friendly approach: pe
	// values are unique per live list, so sort indices by pe.
	sortByPe(live, a.pe)
	var top int32
	for _, i := range live {
		src := a.pe[i]
		n := a.ln[i]
		copy(a.iw[top:top+n], a.iw[src:src+n])
		a.pe[i] = top
		top += n
	}
	a.pfree = top
}

// sortByPe sorts node indices by their pe offsets (insertionless pdq-style
// three-way quicksort is overkill; lists are near-sorted, so use shell
// sort, which is O(n log n)-ish on this input and allocation-free).
func sortByPe(idx []int32, pe []int32) {
	for gap := len(idx) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(idx); i++ {
			v := idx[i]
			j := i
			for j >= gap && pe[idx[j-gap]] > pe[v] {
				idx[j] = idx[j-gap]
				j -= gap
			}
			idx[j] = v
		}
	}
}

// pickPivot pops a variable from the lowest occupied degree bucket.
func (a *amdState) pickPivot() int32 {
	for {
		if a.head[a.mindeg] == amdEmpty {
			a.mindeg++
			continue
		}
		me := a.head[a.mindeg]
		a.dlistRemove(me, a.mindeg)
		return me
	}
}

// eliminate runs the main AMD loop.
func (a *amdState) eliminate() {
	n := int32(a.n)
	for a.nel < n {
		me := a.pickPivot()
		a.eliminatePivot(me)
	}
}

// eliminatePivot eliminates supervariable me: forms the new element Lme,
// updates the approximate degrees of its members, absorbs contained
// elements, merges indistinguishable members, and emits the eliminated
// columns.
func (a *amdState) eliminatePivot(me int32) {
	nvpiv := a.nv[me]
	a.emit(me)
	a.nel += nvpiv
	a.nv[me] = -nvpiv // flagged for the duration of the pivot

	// --- Form Lme = (Ame ∪ ⋃ Le for e ∈ Eme) \ {me} -------------------
	// Upper-bound the space Lme can need and reserve it before writing.
	{
		p, ln, el := a.pe[me], a.ln[me], a.elen[me]
		bound := ln - el
		for _, e := range a.iw[p : p+el] {
			if a.w[e] != 0 { // not absorbed
				bound += a.ln[e]
			}
		}
		a.need(bound)
	}
	// need may move the lists and grow the arena: read both after it.
	iw := a.iw
	pme1 := a.pfree
	pfree := pme1
	degme := int32(0) // |Lme| in original-column units
	{
		p, el, ln := a.pe[me], a.elen[me], a.ln[me]
		lst := iw[p : p+ln]
		// Direct variable neighbours.
		for _, i := range lst[el:] {
			if nvi := a.nv[i]; nvi > 0 { // live, not yet in Lme
				degme += nvi
				a.nv[i] = -nvi
				iw[pfree] = i
				pfree++
				a.dlistRemove(i, a.degree[i])
			}
		}
		// Members of adjacent elements; the elements are absorbed into me.
		for _, e := range lst[:el] {
			if a.w[e] == 0 {
				continue // already absorbed
			}
			pe := a.pe[e]
			for _, i := range iw[pe : pe+a.ln[e]] {
				if nvi := a.nv[i]; nvi > 0 {
					degme += nvi
					a.nv[i] = -nvi
					iw[pfree] = i
					pfree++
					a.dlistRemove(i, a.degree[i])
				}
			}
			a.pe[e] = amdEmpty
			a.w[e] = 0
		}
	}
	pme2 := pfree // Lme = iw[pme1:pme2]
	a.pfree = pfree
	lme := iw[pme1:pme2]

	// me's old list is dead space; me becomes the element with list Lme.
	a.pe[me] = pme1
	a.ln[me] = pme2 - pme1
	a.elen[me] = 0
	a.degree[me] = degme

	if degme == 0 {
		// Isolated (super)variable: no element to create.
		a.pe[me] = amdEmpty
		a.nv[me] = nvpiv
		return
	}
	a.w[me] = 1 // born live

	// --- Scan 1: set differences |Le \ Lme| via the w trick ------------
	// After this scan, w[e] − wflg = |Le \ Lme| for every element e
	// adjacent to a member of Lme (in original-column units).
	wflg := a.wflg
	for _, i := range lme {
		el := a.elen[i]
		if el <= 0 {
			continue
		}
		nvi := int64(-a.nv[i]) // flagged negative
		wnvi := wflg - nvi
		p := a.pe[i]
		for _, e := range iw[p : p+el] {
			// First touch this pivot: |Le| minus nvi. Later touches
			// subtract nvi; an absorbed element keeps w = 0. Selects,
			// not branches: which case holds is data-dependent.
			we := a.w[e]
			nw := int64(a.degree[e]) + wnvi
			if we >= wflg {
				nw = we - nvi
			}
			if we == 0 {
				nw = 0
			}
			a.w[e] = nw
		}
	}

	// --- Scan 2: prune lists, absorb elements, compute degrees ---------
	for _, i := range lme {
		nvi := -a.nv[i]
		if nvi <= 0 {
			continue // mass-eliminated earlier in this scan
		}
		p1 := a.pe[i]
		el := a.elen[i]
		lst := iw[p1 : p1+a.ln[i]]
		pn := int32(0) // write cursor into lst
		var h uint32
		var deg int32
		// Element list: keep elements with a nonempty external part,
		// aggressively absorb the rest into me.
		for _, e := range lst[:el] {
			we := a.w[e]
			if we == 0 {
				continue // absorbed
			}
			if dext := we - wflg; dext > 0 {
				deg += int32(dext)
				lst[pn] = e
				pn++
				h += uint32(e)
				continue
			}
			// Le ⊆ Lme ∪ {me}: e is redundant, absorb it.
			a.pe[e] = amdEmpty
			a.w[e] = 0
		}
		nel := pn // kept elements; me follows them
		// Variable list: drop dead variables and Lme members (their
		// adjacency is now carried by me). The list is rebuilt as [kept
		// elements, me, kept variables] in this one sweep: each slot
		// receives the entry carried from the previous kept one, starting
		// with me. The write cursor never passes the read cursor, because
		// every Lme member drops at least one entry: me itself from its
		// variables, or an element of Eme, absorbed above, from its
		// elements.
		carry := me
		for _, j := range lst[el:] {
			// Branch-free: a dropped entry rewrites the pending slot with
			// the same carry and leaves the cursor where it was.
			nvj := a.nv[j]
			lst[pn] = carry
			if nvj > 0 {
				deg += nvj
				h += uint32(j)
				pn++
				carry = j
			}
		}
		if deg == 0 {
			// Mass elimination: i's entire adjacency is inside Lme ∪ {me},
			// so i can be eliminated right along with me.
			a.nv[i] = nvi // unflag before emitting
			a.emit(i)
			a.nel += nvi
			degme -= nvi
			a.nv[i] = 0
			a.pe[i] = amdEmpty
			continue
		}
		lst[pn] = carry
		a.scratch[i] = deg
		a.elen[i] = nel + 1
		a.ln[i] = pn + 1
		h += uint32(me)
		b := h % uint32(a.n)
		a.hash[i] = b
		a.hnext[i] = a.hhead[b]
		a.hhead[b] = i
	}
	a.degree[me] = degme
	// Scan-1 values reach wflg + |Le| − 1 ≤ wflg + n − 1; advancing past
	// that keeps every stale w below the next pivot's threshold (and below
	// the supervariable-comparison stamps issued next).
	a.wflg = wflg + int64(a.n) + 1

	// --- Supervariable detection ---------------------------------------
	// Variables in Lme that hashed to the same bucket are compared; those
	// with identical quotient adjacency are merged.
	for _, i := range lme {
		if a.nv[i] >= 0 || a.hhead[a.hash[i]] == amdEmpty {
			continue // dead, or bucket already processed
		}
		b := a.hash[i]
		x := a.hhead[b]
		a.hhead[b] = amdEmpty // process each bucket once
		for ; x != amdEmpty; x = a.hnext[x] {
			if a.nv[x] >= 0 {
				continue
			}
			for y := a.hnext[x]; y != amdEmpty; y = a.hnext[y] {
				if a.nv[y] >= 0 || a.hash[y] != a.hash[x] {
					continue
				}
				if a.sameAdjacency(x, y) {
					// Merge y into x: x now stands for y's columns too.
					a.nv[x] += a.nv[y] // both negative
					a.appendMembers(x, y)
					a.nv[y] = 0
					a.pe[y] = amdEmpty
					a.elen[y] = 0
					a.ln[y] = 0
				}
			}
		}
	}

	// --- Finalize: restore flags, set degrees, refill buckets ----------
	nLeft := int32(a.n) - a.nel
	for _, i := range lme {
		if a.nv[i] >= 0 {
			continue // dead (mass-eliminated or merged)
		}
		nvi := -a.nv[i]
		a.nv[i] = nvi
		// ADD approximate external degree.
		d := a.scratch[i] + degme - nvi
		if old := a.degree[i] + degme - nvi; old < d {
			d = old
		}
		if lim := nLeft - nvi; lim < d {
			d = lim
		}
		if d < 1 {
			d = 1 // degme > 0, so i still touches me
		}
		a.degree[i] = d
		a.dlistInsert(i, d)
	}
	a.nv[me] = nvpiv
	if degme > 0 {
		// Prune dead entries out of Lme so the element list only carries
		// live supervariables (keeps later scans and pivots linear).
		w := int32(0)
		for _, i := range lme {
			if a.nv[i] > 0 {
				lme[w] = i
				w++
			}
		}
		a.ln[me] = w
		a.pfree = pme1 + w
	} else {
		// Every member was mass-eliminated with the pivot: the element is
		// empty, so it dies immediately and its arena space is reclaimed.
		a.pe[me] = amdEmpty
		a.ln[me] = 0
		a.w[me] = 0
		a.pfree = pme1
	}
}

// sameAdjacency reports whether live variables x and y have identical
// quotient-graph adjacency (same elements, same variables — both lists
// include me, so membership in the current pivot is part of the
// comparison). Lists are unsorted; the comparison marks x's entries with
// a w stamp and verifies y's against it.
func (a *amdState) sameAdjacency(x, y int32) bool {
	if a.ln[x] != a.ln[y] || a.elen[x] != a.elen[y] {
		return false
	}
	stamp := a.wflg
	a.wflg++
	px, py := a.pe[x], a.pe[y]
	n := a.ln[x]
	for k := int32(0); k < n; k++ {
		a.w[a.iw[px+k]] = stamp
	}
	// x must not appear in y's list nor vice versa (they are adjacent to
	// the same nodes, not to each other — indistinguishable columns are
	// connected through me, which both lists contain).
	for k := int32(0); k < n; k++ {
		v := a.iw[py+k]
		if v == x || a.w[v] != stamp {
			return false
		}
	}
	return true
}
