package sparse

import (
	"fmt"
	"slices"
)

// This file preserves the MatrixMarket coordinate parser verbatim
// (identifiers prefixed with ref), as the reference FuzzReadMatrixMarket
// pins Parser.ParseBytes against: the same accept or reject decision, the
// same error text and the same matrix. It finds each line end one byte at
// a time, classifies every line in a separate pass before tokenizing it,
// and sorts each column with a comparison sort.

// refParser is the reference Parser.
type refParser struct {
	pairs  []int32 // tokenized (row, col) pairs, 0-based, interleaved
	colPtr []int32
	next   []int32
	rowIdx []int32
	m      Matrix
}

// refParseBytes parses an in-memory MatrixMarket coordinate file.
func (p *refParser) refParseBytes(data []byte) (*Matrix, error) {
	pos := 0
	line, pos := refMMLine(data, pos)
	if pos < 0 {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	symmetric, skew, err := refParseMMHeader(line)
	if err != nil {
		return nil, err
	}

	// Skip comments and blank lines, then read the size line.
	var n, nnz int64
	for {
		line, pos = refMMLine(data, pos)
		if pos < 0 {
			return nil, fmt.Errorf("sparse: missing size line")
		}
		if refMMBlankOrComment(line) {
			continue
		}
		var lp int
		var rows, cols int64
		var ok bool
		if rows, lp, ok = refMMInt(line, 0); ok {
			if cols, lp, ok = refMMInt(line, lp); ok {
				nnz, lp, ok = refMMInt(line, lp)
				ok = ok && refMMRest(line, lp)
			}
		}
		if !ok {
			return nil, fmt.Errorf("sparse: malformed size line %q", line)
		}
		if rows != cols {
			return nil, fmt.Errorf("sparse: matrix is %d×%d; only square supported", rows, cols)
		}
		n = rows
		break
	}
	if n <= 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: invalid size %d×%d with %d entries", n, n, nnz)
	}
	// Guard allocations against corrupt headers: every entry needs at
	// least 4 bytes ("i j\n"), and a file describing an n-column matrix
	// cannot plausibly be orders of magnitude smaller than n.
	rest := int64(len(data) - pos)
	if nnz > 0 && nnz*3 > rest {
		return nil, fmt.Errorf("sparse: declared %d entries but only %d bytes remain", nnz, rest)
	}
	if n > 4+8*int64(len(data)) {
		return nil, fmt.Errorf("sparse: declared dimension %d implausible for %d-byte input", n, len(data))
	}

	// Pass 1: tokenize entries into pairs, counting entries per column.
	if cap(p.colPtr) < int(n)+1 {
		p.colPtr = make([]int32, n+1)
		p.next = make([]int32, n)
	} else {
		p.colPtr = p.colPtr[:n+1]
		p.next = p.next[:n]
		clear(p.colPtr)
	}
	// The header's entry count sizes the pair buffer up front; the guard
	// above bounds it by the input length.
	if cap(p.pairs) < int(2*nnz) {
		p.pairs = make([]int32, 0, 2*nnz)
	}
	p.pairs = p.pairs[:0]
	var read int64
	for read < nnz {
		line, pos = refMMLine(data, pos)
		if pos < 0 {
			break
		}
		if refMMBlankOrComment(line) {
			continue
		}
		i, lp, ok := refMMInt(line, 0)
		var j int64
		if ok {
			j, _, ok = refMMInt(line, lp)
		}
		if !ok {
			return nil, fmt.Errorf("sparse: malformed entry %q", line)
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for n=%d", i, j, n)
		}
		if skew && i == j {
			return nil, fmt.Errorf("sparse: explicit diagonal entry (%d,%d) in skew-symmetric file", i, j)
		}
		p.pairs = append(p.pairs, int32(i-1), int32(j-1))
		p.colPtr[j]++
		if symmetric && i != j {
			p.colPtr[i]++
		}
		read++
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	// Anything after the declared entries must be comments or blanks.
	for {
		line, pos = refMMLine(data, pos)
		if pos < 0 {
			break
		}
		if !refMMBlankOrComment(line) {
			return nil, fmt.Errorf("sparse: trailing garbage after %d entries: %q", nnz, line)
		}
	}

	// Pass 2: prefix sums, then bucket fill.
	var total int32
	for j := int64(1); j <= n; j++ {
		total += p.colPtr[j]
		p.colPtr[j] = total
	}
	copy(p.next, p.colPtr[:n])
	if cap(p.rowIdx) < int(total) {
		p.rowIdx = make([]int32, total)
	} else {
		p.rowIdx = p.rowIdx[:total]
	}
	for k := 0; k < len(p.pairs); k += 2 {
		i, j := p.pairs[k], p.pairs[k+1]
		p.rowIdx[p.next[j]] = i
		p.next[j]++
		if symmetric && i != j {
			p.rowIdx[p.next[i]] = j
			p.next[i]++
		}
	}
	// Pass 3: sort each column and deduplicate in place, compacting.
	var w int32
	for j := int64(0); j < n; j++ {
		lo, hi := p.colPtr[j], p.colPtr[j+1]
		slices.Sort(p.rowIdx[lo:hi])
		newLo := w
		for r := lo; r < hi; r++ {
			if w == newLo || p.rowIdx[r] != p.rowIdx[w-1] {
				p.rowIdx[w] = p.rowIdx[r]
				w++
			}
		}
		p.colPtr[j] = newLo
	}
	p.colPtr[n] = w
	p.m = Matrix{n: int(n), colPtr: p.colPtr, rowIdx: p.rowIdx[:w]}
	return &p.m, nil
}

// refMMLine returns the next line of data starting at pos and the offset just
// past its terminator, stripping a trailing \r. next is -1 at end of input.
func refMMLine(data []byte, pos int) (line []byte, next int) {
	if pos >= len(data) {
		return nil, -1
	}
	end := pos
	for end < len(data) && data[end] != '\n' {
		end++
	}
	line = data[pos:end]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, end + 1
}

// refMMBlankOrComment reports whether the line carries no data.
func refMMBlankOrComment(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t':
			continue
		case '%':
			return true
		default:
			return false
		}
	}
	return true
}

// refMMInt parses the next whitespace-delimited decimal integer of line at or
// after pos, returning the value and the offset past it.
func refMMInt(line []byte, pos int) (val int64, next int, ok bool) {
	for pos < len(line) && (line[pos] == ' ' || line[pos] == '\t') {
		pos++
	}
	neg := false
	if pos < len(line) && (line[pos] == '-' || line[pos] == '+') {
		neg = line[pos] == '-'
		pos++
	}
	start := pos
	for pos < len(line) && line[pos] >= '0' && line[pos] <= '9' {
		if val > (1<<62)/10 {
			return 0, pos, false // overflow
		}
		val = val*10 + int64(line[pos]-'0')
		pos++
	}
	if pos == start {
		return 0, pos, false
	}
	if pos < len(line) && line[pos] != ' ' && line[pos] != '\t' {
		return 0, pos, false // e.g. "1x" or a float where an index belongs
	}
	if neg {
		val = -val
	}
	return val, pos, true
}

// refMMRest reports whether only whitespace remains on the line after pos.
func refMMRest(line []byte, pos int) bool {
	for ; pos < len(line); pos++ {
		if line[pos] != ' ' && line[pos] != '\t' {
			return false
		}
	}
	return true
}

// refParseMMHeader validates the banner line and classifies the storage.
func refParseMMHeader(line []byte) (symmetric, skew bool, err error) {
	var toks [6][]byte
	ntok := 0
	pos := 0
	for ntok < 6 {
		for pos < len(line) && (line[pos] == ' ' || line[pos] == '\t') {
			pos++
		}
		if pos >= len(line) {
			break
		}
		start := pos
		for pos < len(line) && line[pos] != ' ' && line[pos] != '\t' {
			pos++
		}
		toks[ntok] = line[start:pos]
		ntok++
	}
	if ntok < 5 || !refMMFold(toks[0], "%%matrixmarket") || !refMMFold(toks[1], "matrix") || !refMMFold(toks[2], "coordinate") {
		return false, false, fmt.Errorf("sparse: unsupported MatrixMarket header %q", line)
	}
	switch {
	case refMMFold(toks[3], "pattern"), refMMFold(toks[3], "real"), refMMFold(toks[3], "integer"):
	default:
		return false, false, fmt.Errorf("sparse: unsupported field type %q", toks[3])
	}
	switch {
	case refMMFold(toks[4], "general"):
	case refMMFold(toks[4], "symmetric"):
		symmetric = true
	case refMMFold(toks[4], "skew-symmetric"):
		symmetric, skew = true, true
	default:
		return false, false, fmt.Errorf("sparse: unsupported storage %q", toks[4])
	}
	return symmetric, skew, nil
}

// refMMFold compares b to the lower-case ASCII string s case-insensitively.
func refMMFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
