package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Digest is the 256-bit content hash of a tree instance. Two trees have the
// same digest exactly when they are the same instance: same node count, same
// parent vector, same F and N weights (up to SHA-256 collisions). The result
// cache and the evaluation-service wire protocol both key on it.
type Digest [sha256.Size]byte

// String renders the digest as lower-case hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest parses the hex form produced by Digest.String: exactly 64
// hex characters. It is how the evaluation service resolves a batch job
// that references an uploaded tree by digest instead of inlining it.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	if len(s) != hex.EncodedLen(len(d)) {
		return Digest{}, fmt.Errorf("tree: digest %q: want %d hex characters, got %d", s, hex.EncodedLen(len(d)), len(s))
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return Digest{}, fmt.Errorf("tree: digest %q: %v", s, err)
	}
	return d, nil
}

// Digest returns the content hash of the canonical binary serialization of
// the tree: a version tag, the node count, then (parent, F, N) for every
// node in index order, all little-endian. The encoding is independent of
// platform, process and Go version, so digests are stable across machines —
// a cache entry or a wire message produced anywhere names the same instance
// everywhere. Node indices are part of the identity: traversal orders
// exchanged alongside a tree reference nodes by index, and index-sensitive
// solvers (natural-postorder) would otherwise alias distinct instances.
//
// A tree is immutable, so the first call hashes it and caches the result;
// later calls return the cached digest without hashing or allocating.
// Concurrent first calls may each hash, and they agree.
func (t *Tree) Digest() Digest {
	if d := t.digest.Load(); d != nil {
		return *d
	}
	d := t.hash()
	t.digest.Store(&d)
	return d
}

// hash computes Digest's content hash.
func (t *Tree) hash() Digest {
	h := sha256.New()
	h.Write([]byte("repro/tree/v1\n"))
	// The records go to the hash in large writes through one stack buffer;
	// the bytes hashed are the same as one write per field.
	var buf [24 * 64]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(t.Len()))
	for i := range t.parent {
		if len(b)+24 > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(t.parent[i])))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.f[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.n[i]))
	}
	h.Write(b)
	var d Digest
	h.Sum(d[:0])
	return d
}
