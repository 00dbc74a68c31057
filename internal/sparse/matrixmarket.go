package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// WriteMatrixMarket serializes the pattern in MatrixMarket coordinate
// format ("%%MatrixMarket matrix coordinate pattern general"), 1-based.
func (m *Matrix) WriteMatrixMarket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", m.n, m.n, m.NNZ()); err != nil {
		return err
	}
	for j := 0; j < m.n; j++ {
		for _, i := range m.Col(j) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i+1, j+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file. Real, integer and
// pattern fields are accepted (values are discarded); "symmetric" and
// "skew-symmetric" storage is expanded to both triangles (skew-symmetric
// files must not carry explicit diagonal entries). Only square matrices are
// accepted, since the downstream pipeline symmetrizes and factorizes. Any
// non-comment content after the declared number of entries is rejected.
//
// The returned matrix owns its storage. For repeated ingest without
// per-call allocation, use a Parser.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	var p Parser
	m, err := p.Parse(r)
	if err != nil {
		return nil, err
	}
	// Detach from the parser so the matrix survives parser reuse.
	out := &Matrix{n: m.n}
	out.colPtr = append(out.colPtr, m.colPtr...)
	out.rowIdx = append(out.rowIdx, m.rowIdx...)
	return out, nil
}

// Parser is a reusable MatrixMarket coordinate reader. It tokenizes the
// raw bytes directly (no Scanner, no Fields, no Atoi), builds CSC with
// two counting sorts, by row and then by column, and reuses every
// internal buffer, so steady-state parsing performs zero heap allocations.
// The matrix returned by Parse/ParseBytes aliases the parser's buffers and
// is valid only until the next call; use ReadMatrixMarket for an owning
// copy.
type Parser struct {
	buf []byte // raw input for the io.Reader path
	// pairs holds the tokenized (row, col) pairs, 0-based, interleaved,
	// and then the returned matrix's row indices.
	pairs  []int32
	colPtr []int32
	rowPtr []int32
	next   []int32
	byRow  []int32 // column indices grouped by row
	m      Matrix
}

// Parse reads all of r and parses it as a MatrixMarket coordinate file.
func (p *Parser) Parse(r io.Reader) (*Matrix, error) {
	p.buf = p.buf[:0]
	if cap(p.buf) == 0 {
		p.buf = make([]byte, 0, 1<<16)
	}
	for {
		if len(p.buf) == cap(p.buf) {
			p.buf = append(p.buf, 0)[:len(p.buf)]
		}
		nr, err := r.Read(p.buf[len(p.buf):cap(p.buf)])
		p.buf = p.buf[:len(p.buf)+nr]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return p.ParseBytes(p.buf)
}

// ParseBytes parses an in-memory MatrixMarket coordinate file.
func (p *Parser) ParseBytes(data []byte) (*Matrix, error) {
	pos := 0
	line, pos := mmLine(data, pos)
	if pos < 0 {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	symmetric, skew, err := parseMMHeader(line)
	if err != nil {
		return nil, err
	}

	// Skip comments and blank lines, then read the size line.
	var n, nnz int64
	for {
		line, pos = mmLine(data, pos)
		if pos < 0 {
			return nil, fmt.Errorf("sparse: missing size line")
		}
		if mmBlankOrComment(line) {
			continue
		}
		var lp int
		var rows, cols int64
		var ok bool
		if rows, lp, ok = mmInt(line, 0); ok {
			if cols, lp, ok = mmInt(line, lp); ok {
				nnz, lp, ok = mmInt(line, lp)
				ok = ok && mmRest(line, lp)
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

	// Pass 1: tokenize entries into pairs, counting entries per column
	// and per row.
	if cap(p.colPtr) < int(n)+1 {
		p.colPtr = make([]int32, n+1)
		p.rowPtr = make([]int32, n+1)
		p.next = make([]int32, n)
	} else {
		p.colPtr = p.colPtr[:n+1]
		p.rowPtr = p.rowPtr[:n+1]
		p.next = p.next[:n]
		clear(p.colPtr)
		clear(p.rowPtr)
	}
	// The header's entry count sizes the pair buffer up front; the guard
	// above bounds it by the input length.
	if cap(p.pairs) < int(2*nnz) {
		p.pairs = make([]int32, 0, 2*nnz)
	}
	p.pairs = p.pairs[:0]
	var read int64
	for read < nnz {
		i, j, next, ok := mmEntry(data, pos)
		if ok {
			pos = next
		} else {
			line, pos = mmLine(data, pos)
			if pos < 0 {
				break
			}
			if mmBlankOrComment(line) {
				continue
			}
			var lp int
			if i, lp, ok = mmInt(line, 0); ok {
				j, _, ok = mmInt(line, lp)
			}
			if !ok {
				return nil, fmt.Errorf("sparse: malformed entry %q", line)
			}
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for n=%d", i, j, n)
		}
		if skew && i == j {
			return nil, fmt.Errorf("sparse: explicit diagonal entry (%d,%d) in skew-symmetric file", i, j)
		}
		p.pairs = append(p.pairs, int32(i-1), int32(j-1))
		p.colPtr[j]++
		p.rowPtr[i]++
		if symmetric && i != j {
			p.colPtr[i]++
			p.rowPtr[j]++
		}
		read++
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	// Anything after the declared entries must be comments or blanks.
	for {
		line, pos = mmLine(data, pos)
		if pos < 0 {
			break
		}
		if !mmBlankOrComment(line) {
			return nil, fmt.Errorf("sparse: trailing garbage after %d entries: %q", nnz, line)
		}
	}

	// Pass 2: a counting sort of the entries by row, then by column.
	// Scattering the rows in increasing order fills every column already
	// sorted, so no column needs a comparison sort.
	var total int32
	for j := int64(1); j <= n; j++ {
		total += p.colPtr[j]
		p.colPtr[j] = total
		p.rowPtr[j] += p.rowPtr[j-1]
	}
	if cap(p.byRow) < int(total) {
		p.byRow = make([]int32, total)
	} else {
		p.byRow = p.byRow[:total]
	}
	copy(p.next, p.rowPtr[:n])
	for k := 0; k < len(p.pairs); k += 2 {
		i, j := p.pairs[k], p.pairs[k+1]
		p.byRow[p.next[i]] = j
		p.next[i]++
		if symmetric && i != j {
			p.byRow[p.next[j]] = i
			p.next[j]++
		}
	}
	// The pairs are consumed: their storage, at least total entries long,
	// takes the row indices.
	rowIdx := p.pairs[:total]
	copy(p.next, p.colPtr[:n])
	for i := int64(0); i < n; i++ {
		for _, j := range p.byRow[p.rowPtr[i]:p.rowPtr[i+1]] {
			rowIdx[p.next[j]] = int32(i)
			p.next[j]++
		}
	}
	// Pass 3: deduplicate each sorted column in place, compacting.
	var w int32
	for j := int64(0); j < n; j++ {
		lo, hi := p.colPtr[j], p.colPtr[j+1]
		newLo := w
		for r := lo; r < hi; r++ {
			if w == newLo || rowIdx[r] != rowIdx[w-1] {
				rowIdx[w] = rowIdx[r]
				w++
			}
		}
		p.colPtr[j] = newLo
	}
	p.colPtr[n] = w
	p.m = Matrix{n: int(n), colPtr: p.colPtr, rowIdx: rowIdx[:w]}
	return &p.m, nil
}

// mmLine returns the next line of data starting at pos and the offset just
// past its terminator, stripping a trailing \r. next is -1 at end of input.
func mmLine(data []byte, pos int) (line []byte, next int) {
	if pos >= len(data) {
		return nil, -1
	}
	end := len(data)
	if k := bytes.IndexByte(data[pos:], '\n'); k >= 0 {
		end = pos + k
	}
	line = data[pos:end]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, end + 1
}

// mmEntry reads the common entry line at data[pos:] in one pass: two
// unsigned decimal integers of at most 18 digits (so no overflow check),
// one space apart, the second followed by the newline or by a blank and
// ignored fields such as a value. It returns the offset past the newline.
// On any other line it reports ok = false, and the caller parses the line
// with mmLine and mmInt, which decide every line mmEntry takes the same
// way.
func mmEntry(data []byte, pos int) (i, j int64, next int, ok bool) {
	i, p, ok := mmDigits(data, pos)
	if !ok || p >= len(data) || data[p] != ' ' {
		return 0, 0, 0, false
	}
	if j, p, ok = mmDigits(data, p+1); !ok || p >= len(data) {
		return 0, 0, 0, false
	}
	switch data[p] {
	case '\n':
		return i, j, p + 1, true
	case ' ', '\t':
		if k := bytes.IndexByte(data[p:], '\n'); k >= 0 {
			return i, j, p + k + 1, true
		}
	}
	return 0, 0, 0, false
}

// mmDigits reads the run of decimal digits at data[pos:]; ok is false
// unless it has 1 to 18 digits.
func mmDigits(data []byte, pos int) (val int64, next int, ok bool) {
	p := pos
	for p < len(data) {
		d := data[p] - '0'
		if d > 9 {
			break
		}
		val = val*10 + int64(d)
		p++
	}
	return val, p, p > pos && p-pos <= 18
}

// mmBlankOrComment reports whether the line carries no data.
func mmBlankOrComment(line []byte) bool {
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

// mmInt parses the next whitespace-delimited decimal integer of line at or
// after pos, returning the value and the offset past it.
func mmInt(line []byte, pos int) (val int64, next int, ok bool) {
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

// mmRest reports whether only whitespace remains on the line after pos.
func mmRest(line []byte, pos int) bool {
	for ; pos < len(line); pos++ {
		if line[pos] != ' ' && line[pos] != '\t' {
			return false
		}
	}
	return true
}

// parseMMHeader validates the banner line and classifies the storage.
func parseMMHeader(line []byte) (symmetric, skew bool, err error) {
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
	if ntok < 5 || !mmFold(toks[0], "%%matrixmarket") || !mmFold(toks[1], "matrix") || !mmFold(toks[2], "coordinate") {
		return false, false, fmt.Errorf("sparse: unsupported MatrixMarket header %q", line)
	}
	switch {
	case mmFold(toks[3], "pattern"), mmFold(toks[3], "real"), mmFold(toks[3], "integer"):
	default:
		return false, false, fmt.Errorf("sparse: unsupported field type %q", toks[3])
	}
	switch {
	case mmFold(toks[4], "general"):
	case mmFold(toks[4], "symmetric"):
		symmetric = true
	case mmFold(toks[4], "skew-symmetric"):
		symmetric, skew = true, true
	default:
		return false, false, fmt.Errorf("sparse: unsupported storage %q", toks[4])
	}
	return symmetric, skew, nil
}

// mmFold compares b to the lower-case ASCII string s case-insensitively.
func mmFold(b []byte, s string) bool {
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
