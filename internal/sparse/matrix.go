// Package sparse provides the sparse-matrix substrate of the reproduction:
// compressed sparse column (CSC) patterns, the symmetrization |A|+|Aᵀ|+I
// used by the paper's experimental setup, model-problem generators (2D/3D
// grid Laplacians, random symmetric patterns) standing in for the
// University of Florida collection, and Matrix Market I/O.
//
// Only the nonzero pattern matters for elimination trees and assembly
// trees, so matrices are stored pattern-only.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Matrix is an n×n sparse pattern in CSC form. Row indices within a column
// are strictly increasing. The zero value is not usable; use New or a
// generator.
type Matrix struct {
	n      int
	colPtr []int32
	rowIdx []int32
	// symmetric records that the pattern is symmetric with a full
	// diagonal by construction. Only Symmetrize, which builds
	// |A| + |Aᵀ| + I, and Permute of a recorded matrix, a symmetric
	// permutation that keeps both properties, set it. It is never inferred
	// from the entries. IsSymmetric and HasFullDiagonal return at once for
	// a recorded matrix, and Permute skips its transpose.
	symmetric bool
}

// New builds a CSC pattern from per-column row indices. Duplicate entries
// within a column are merged; indices are sorted.
func New(n int, cols [][]int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: need n > 0, got %d", n)
	}
	if len(cols) != n {
		return nil, fmt.Errorf("sparse: got %d columns, want %d", len(cols), n)
	}
	m := &Matrix{n: n, colPtr: make([]int32, n+1)}
	var buf []int32
	for j, col := range cols {
		start := len(buf)
		for _, i := range col {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("sparse: entry (%d,%d) out of range", i, j)
			}
			buf = append(buf, int32(i))
		}
		seg := buf[start:]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
		// Deduplicate in place.
		w := start
		for r := start; r < len(buf); r++ {
			if w == start || buf[r] != buf[w-1] {
				buf[w] = buf[r]
				w++
			}
		}
		buf = buf[:w]
		m.colPtr[j+1] = int32(len(buf))
	}
	m.rowIdx = buf
	return m, nil
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.rowIdx) }

// Col returns the sorted row indices of column j. The returned slice is
// owned by the matrix; do not mutate.
func (m *Matrix) Col(j int) []int32 {
	return m.rowIdx[m.colPtr[j]:m.colPtr[j+1]]
}

// Has reports whether entry (i, j) is present.
func (m *Matrix) Has(i, j int) bool {
	col := m.Col(j)
	k := sort.Search(len(col), func(x int) bool { return col[x] >= int32(i) })
	return k < len(col) && col[k] == int32(i)
}

// Transpose returns the pattern of Aᵀ.
func (m *Matrix) Transpose() *Matrix {
	return m.transpose(make([]int32, m.n))
}

// transpose returns the pattern of Aᵀ, using next (length n) as its fill
// cursor. Columns of m are visited in increasing order, so every output
// column comes out sorted whatever the order within m's columns.
func (m *Matrix) transpose(next []int32) *Matrix {
	out := &Matrix{n: m.n, colPtr: make([]int32, m.n+1), rowIdx: make([]int32, len(m.rowIdx))}
	for _, i := range m.rowIdx {
		out.colPtr[i+1]++
	}
	for j := 1; j <= m.n; j++ {
		out.colPtr[j] += out.colPtr[j-1]
	}
	copy(next, out.colPtr[:m.n])
	for j := 0; j < m.n; j++ {
		for _, i := range m.Col(j) {
			out.rowIdx[next[i]] = int32(j)
			next[i]++
		}
	}
	return out
}

// Symmetrize returns the pattern of |A| + |Aᵀ| + I, the form the paper
// feeds to the ordering and symbolic-factorization steps. The result is
// allocated at its exact size, because it lives through every ordering of
// the matrix. A symmetric A, such as a file that lists both triangles or
// uses symmetric storage, needs no transpose: the result is A with its
// missing diagonal entries inserted. Otherwise columns of A and Aᵀ are
// already sorted, so each output column is a deduplicating 3-way merge —
// no per-column scratch, no re-sort — and a first pass counts the merged
// columns' lengths.
func (m *Matrix) Symmetrize() *Matrix {
	out := &Matrix{n: m.n, colPtr: make([]int32, m.n+1), symmetric: true}
	if m.IsSymmetric() {
		diagonals := 0
		for j := 0; j < m.n; j++ {
			if _, ok := slices.BinarySearch(m.Col(j), int32(j)); ok {
				diagonals++
			}
		}
		out.rowIdx = make([]int32, 0, len(m.rowIdx)+m.n-diagonals)
		for j := 0; j < m.n; j++ {
			col := m.Col(j)
			k, ok := slices.BinarySearch(col, int32(j))
			out.rowIdx = append(out.rowIdx, col[:k]...)
			if !ok {
				out.rowIdx = append(out.rowIdx, int32(j))
			}
			out.rowIdx = append(out.rowIdx, col[k:]...)
			out.colPtr[j+1] = int32(len(out.rowIdx))
		}
		return out
	}
	at := m.Transpose()
	size := 0
	for j := 0; j < m.n; j++ {
		size += unionWithDiagonalLen(m.Col(j), at.Col(j), int32(j))
	}
	out.rowIdx = make([]int32, 0, size)
	for j := 0; j < m.n; j++ {
		a, b := m.Col(j), at.Col(j)
		dj := int32(j)
		diagDone := false
		last := int32(-1)
		x, y := 0, 0
		for x < len(a) || y < len(b) {
			var v int32
			if x < len(a) && (y >= len(b) || a[x] <= b[y]) {
				v = a[x]
				x++
			} else {
				v = b[y]
				y++
			}
			if !diagDone && v > dj {
				out.rowIdx = append(out.rowIdx, dj)
				last = dj
				diagDone = true
			}
			if v >= dj {
				diagDone = true
			}
			if v != last {
				out.rowIdx = append(out.rowIdx, v)
				last = v
			}
		}
		if !diagDone {
			out.rowIdx = append(out.rowIdx, dj)
		}
		out.colPtr[j+1] = int32(len(out.rowIdx))
	}
	return out
}

// unionWithDiagonalLen returns |a ∪ b ∪ {dj}| for column dj of A (a) and
// of Aᵀ (b), both sorted and duplicate-free. A diagonal entry is its own
// transpose, so dj is in both columns or in neither.
func unionWithDiagonalLen(a, b []int32, dj int32) int {
	common, diagonal := 0, 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			if a[x] == dj {
				diagonal = 1
			}
			common++
			x++
			y++
		}
	}
	return len(a) + len(b) - common + 1 - diagonal
}

// IsSymmetric reports whether the pattern equals its transpose. Columns
// are sorted, so a walk over the columns in increasing order meets the
// entries (i, j) of every row i in the order column i lists them. One
// cursor per column checks each as it is met; the pattern is symmetric iff
// every check passes and every cursor ends at its column's end. It is a
// full O(nnz) verification with one n-entry allocation, where building
// the transpose would take three. A pattern recorded as symmetric by
// construction (a Symmetrize result, or a Permute of one) is symmetric
// without the walk.
func (m *Matrix) IsSymmetric() bool {
	if m.symmetric {
		return true
	}
	cursor := make([]int32, m.n)
	copy(cursor, m.colPtr[:m.n])
	for j := 0; j < m.n; j++ {
		for _, i := range m.Col(j) {
			c := cursor[i]
			if c == m.colPtr[i+1] || m.rowIdx[c] != int32(j) {
				return false
			}
			cursor[i] = c + 1
		}
	}
	for i, c := range cursor {
		if c != m.colPtr[i+1] {
			return false
		}
	}
	return true
}

// HasFullDiagonal reports whether every diagonal entry is present, at once
// for a pattern recorded as symmetric by construction, which has them all.
func (m *Matrix) HasFullDiagonal() bool {
	if m.symmetric {
		return true
	}
	for j := 0; j < m.n; j++ {
		if !m.Has(j, j) {
			return false
		}
	}
	return true
}

// Permute returns the pattern of PAPᵀ where perm is the new-to-old
// permutation: row/column perm[k] of A becomes row/column k of the result.
// It builds the result without comparisons: a counting pass sizes the rows
// of PAPᵀ, one scatter of inv[Col(perm[k])] over the new columns k in
// increasing order fills (PAPᵀ)ᵀ with sorted columns, and transposing that
// yields PAPᵀ with sorted columns. When m is symmetric by construction (a
// Symmetrize result, or a Permute of one), (PAPᵀ)ᵀ = PAPᵀ, so the scatter
// is the result and the transpose is skipped; the result is recorded as
// symmetric in turn. A fixed number of allocations, whatever n.
func (m *Matrix) Permute(perm []int) (*Matrix, error) {
	n := m.n
	if len(perm) != n {
		return nil, fmt.Errorf("sparse: permutation has %d entries, want %d", len(perm), n)
	}
	inv := make([]int32, n)
	for k := range inv {
		inv[k] = -1
	}
	for k, old := range perm {
		if old < 0 || old >= n {
			return nil, fmt.Errorf("sparse: permutation entry %d out of range", old)
		}
		if inv[old] != -1 {
			return nil, fmt.Errorf("sparse: permutation repeats %d", old)
		}
		inv[old] = int32(k)
	}
	// Column r of t lists the new columns k holding an entry in new row r.
	t := Matrix{n: n, colPtr: make([]int32, n+1), rowIdx: make([]int32, len(m.rowIdx))}
	for _, i := range m.rowIdx {
		t.colPtr[inv[i]+1]++
	}
	for r := 1; r <= n; r++ {
		t.colPtr[r] += t.colPtr[r-1]
	}
	next := make([]int32, n)
	copy(next, t.colPtr[:n])
	for k, old := range perm {
		for _, i := range m.Col(old) {
			r := inv[i]
			t.rowIdx[next[r]] = int32(k)
			next[r]++
		}
	}
	if m.symmetric {
		t.symmetric = true
		return &t, nil
	}
	return t.transpose(inv), nil
}
