package sparse

// This file preserves the transpose-based IsSymmetric verbatim, as the
// reference the differential tests pin the cursor-per-column check
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
