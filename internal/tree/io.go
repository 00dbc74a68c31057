package tree

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The .tree text format is line oriented:
//
//	# comment
//	p <number-of-nodes>
//	<node> <parent> <f> <n>
//
// one node line per node, parent −1 for the root. Node ids are 0-based.
// A document ends once its header's node count is satisfied; Read refuses
// anything but blank and comment lines after it.

// Write serializes t in the .tree text format.
func (t *Tree) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d\n", t.Len()); err != nil {
		return err
	}
	for i := 0; i < t.Len(); i++ {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", i, t.Parent(i), t.F(i), t.N(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decoder reads a stream of .tree documents. Construct with newDecoder.
type decoder struct {
	sc   *bufio.Scanner
	line int
}

// newDecoder returns a decoder reading consecutive .tree documents from r.
func newDecoder(r io.Reader) *decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &decoder{sc: sc}
}

// decode parses the next document of the stream. At the clean end of the
// stream it returns io.EOF; a document cut off mid-way is an error, not
// EOF.
//
// Node lines are kept in arrival order and placed by id only once the
// header's count of them has arrived, so memory follows the lines read,
// never the count a header declares: "p 10000000" alone allocates
// nothing.
func (d *decoder) decode() (*Tree, error) {
	var (
		ids, parent []int
		f, n        []int64
		p           = -1
	)
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "p" {
			if p != -1 {
				return nil, fmt.Errorf("tree: line %d: duplicate header", d.line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("tree: line %d: malformed header %q", d.line, text)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("tree: line %d: bad node count %q", d.line, fields[1])
			}
			p = v
			continue
		}
		if p == -1 {
			return nil, fmt.Errorf("tree: line %d: node line before header", d.line)
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("tree: line %d: want 4 fields, got %d", d.line, len(fields))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 || id >= p {
			return nil, fmt.Errorf("tree: line %d: bad node id %q", d.line, fields[0])
		}
		par, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("tree: line %d: bad parent %q", d.line, fields[1])
		}
		fi, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tree: line %d: bad f %q", d.line, fields[2])
		}
		ni, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tree: line %d: bad n %q", d.line, fields[3])
		}
		ids, parent = append(ids, id), append(parent, par)
		f, n = append(f, fi), append(n, ni)
		if len(ids) == p {
			// Document complete: the next decode starts a fresh header.
			return placeNodes(ids, parent, f, n)
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, err
	}
	if p == -1 {
		return nil, io.EOF
	}
	return nil, fmt.Errorf("tree: document ends after %d of %d nodes", len(ids), p)
}

// placeNodes builds the tree of a complete document whose node lines
// arrived in the order ids lists, moving each line to its id's slot unless
// the lines already came in id order.
func placeNodes(ids, parent []int, f, n []int64) (*Tree, error) {
	inOrder := true
	for k, id := range ids {
		if id != k {
			inOrder = false
			break
		}
	}
	if inOrder {
		return New(parent, f, n)
	}
	p := len(ids)
	byID, fByID, nByID := make([]int, p), make([]int64, p), make([]int64, p)
	seen := make([]bool, p)
	for k, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("tree: duplicate node %d", id)
		}
		seen[id] = true
		byID[id], fByID[id], nByID[id] = parent[k], f[k], n[k]
	}
	return New(byID, fByID, nByID)
}

// Read parses a single tree in the .tree text format, rejecting an empty
// stream and trailing content after the document.
func Read(r io.Reader) (*Tree, error) {
	dec := newDecoder(r)
	t, err := dec.decode()
	if err == io.EOF {
		return nil, fmt.Errorf("tree: missing header")
	}
	if err != nil {
		return nil, err
	}
	if _, err := dec.decode(); err != io.EOF {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("tree: trailing content after document")
	}
	return t, nil
}
