package tree

import (
	"encoding/binary"
	"fmt"
)

// The binary .tree wire form is the compact sibling of the textual format:
//
//	magic byte 0xA9, version byte 0x01
//	uvarint p (number of nodes)
//	p × ( uvarint parent+1 , uvarint f , varint n )
//
// Parents are stored shifted by one so the root's NoParent (-1) encodes as
// zero; f is validated non-negative by New so it travels as a uvarint; n may
// be negative (model transforms) so it travels zigzag. The document is
// self-delimiting — DecodeBinary returns the remaining bytes — so documents
// concatenate on one stream exactly like the textual form. Both codecs
// validate with New's checks, so a binary round trip is bit-identical to a
// textual one.

// BinaryMagic is the first byte of every binary .tree document. It is
// deliberately non-ASCII so binary and textual documents can never be
// confused: a textual document starts with '#' or 'p'.
const BinaryMagic = 0xA9

// BinaryVersion is the current (and only) binary .tree format version.
const BinaryVersion = 1

// AppendBinary serializes t in the binary .tree wire form, appending to dst
// (pass nil to allocate), and returns the extended slice.
func (t *Tree) AppendBinary(dst []byte) []byte {
	dst = append(dst, BinaryMagic, BinaryVersion)
	dst = binary.AppendUvarint(dst, uint64(t.Len()))
	for i := 0; i < t.Len(); i++ {
		dst = binary.AppendUvarint(dst, uint64(t.Parent(i)+1))
		dst = binary.AppendUvarint(dst, uint64(t.F(i)))
		dst = binary.AppendVarint(dst, t.N(i))
	}
	return dst
}

// DecodeBinary parses one binary .tree document from the front of data and
// returns the tree plus the remaining bytes, so concatenated documents
// decode one at a time. The vectors decode straight into the tree and pass
// New's validation, so a decoded tree is validated and bit-identical to the
// encoded one.
func DecodeBinary(data []byte) (*Tree, []byte, error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("tree: binary document truncated (%d bytes)", len(data))
	}
	if data[0] != BinaryMagic {
		return nil, nil, fmt.Errorf("tree: bad binary magic 0x%02X (want 0x%02X)", data[0], BinaryMagic)
	}
	if data[1] != BinaryVersion {
		return nil, nil, fmt.Errorf("tree: unsupported binary version %d (want %d)", data[1], BinaryVersion)
	}
	rest := data[2:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, nil, fmt.Errorf("tree: binary document has a malformed node count")
	}
	rest = rest[n:]
	// Every node takes at least three bytes, so a corrupt count larger than
	// the remaining payload is rejected before allocating anything.
	if count < 1 || count > uint64(len(rest)/3)+1 {
		return nil, nil, fmt.Errorf("tree: binary node count %d does not fit the %d-byte payload", count, len(rest))
	}
	p := int(count)
	t := &Tree{
		parent: make([]int32, p),
		f:      make([]int64, p),
		n:      make([]int64, p),
	}
	for i := 0; i < p; i++ {
		pv, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("tree: binary node %d has a malformed parent", i)
		}
		rest = rest[n:]
		if pv > uint64(p) {
			return nil, nil, fmt.Errorf("tree: binary node %d has out-of-range parent %d", i, int64(pv)-1)
		}
		t.parent[i] = int32(pv) - 1
		fv, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("tree: binary node %d has a malformed f", i)
		}
		rest = rest[n:]
		t.f[i] = int64(fv)
		nv, n := binary.Varint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("tree: binary node %d has a malformed n", i)
		}
		rest = rest[n:]
		t.n[i] = nv
	}
	if _, err := link(t, t.parent); err != nil {
		return nil, nil, err
	}
	return t, rest, nil
}
