package sparse

// This file preserves the transpose-based IsSymmetric and the
// always-transposing Symmetrize, which sized its result at
// nnz(A) + nnz(Aᵀ) + n, verbatim, as the references the differential
// tests pin the cursor-per-column check and the exactly sized Symmetrize
// against. The Permute reference sits with the other front-end references
// in package ordering's tests, beside the fuzz target that chains them.

// refIsSymmetric is the reference IsSymmetric.
func refIsSymmetric(m *Matrix) bool {
	at := m.Transpose()
	if len(at.rowIdx) != len(m.rowIdx) {
		return false
	}
	for k := range m.rowIdx {
		if m.rowIdx[k] != at.rowIdx[k] {
			return false
		}
	}
	for j := 0; j <= m.n; j++ {
		if m.colPtr[j] != at.colPtr[j] {
			return false
		}
	}
	return true
}

// refSymmetrize is the reference Symmetrize. It returns the pattern of |A| + |Aᵀ| + I, the form the paper
// feeds to the ordering and symbolic-factorization steps. Columns of A and
// Aᵀ are already sorted, so each output column is a deduplicating 3-way
// merge — no per-column scratch, no re-sort.
func refSymmetrize(m *Matrix) *Matrix {
	at := m.Transpose()
	out := &Matrix{n: m.n, colPtr: make([]int32, m.n+1), symmetric: true}
	out.rowIdx = make([]int32, 0, len(m.rowIdx)+len(at.rowIdx)+m.n)
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
