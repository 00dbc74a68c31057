package tree

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func digestTree(t *testing.T, parent []int, f, n []int64) *Tree {
	t.Helper()
	tr, err := New(parent, f, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The digest must be a pure function of the instance content: stable across
// calls and across a serialization round-trip, different whenever any of
// the shape, F or N changes.
func TestDigest(t *testing.T) {
	base := digestTree(t, []int{-1, 0, 0, 1}, []int64{1, 2, 3, 4}, []int64{5, 6, 7, 8})
	d := base.Digest()
	if d != base.Digest() {
		t.Fatal("digest not deterministic across calls")
	}
	if len(d.String()) != 64 || strings.ToLower(d.String()) != d.String() {
		t.Fatalf("digest string %q is not 64 lower-case hex chars", d)
	}

	// Round-trip through the .tree wire form: same instance, same digest.
	var sb strings.Builder
	if err := base.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != d {
		t.Fatal("digest changed across a wire round-trip")
	}

	variants := map[string]*Tree{
		"shape":  digestTree(t, []int{-1, 0, 0, 2}, []int64{1, 2, 3, 4}, []int64{5, 6, 7, 8}),
		"f":      digestTree(t, []int{-1, 0, 0, 1}, []int64{1, 2, 3, 9}, []int64{5, 6, 7, 8}),
		"n":      digestTree(t, []int{-1, 0, 0, 1}, []int64{1, 2, 3, 4}, []int64{5, 6, 7, 9}),
		"n-sign": digestTree(t, []int{-1, 0, 0, 1}, []int64{1, 2, 3, 4}, []int64{5, 6, 7, -8}),
		"longer": digestTree(t, []int{-1, 0, 0, 1, 3}, []int64{1, 2, 3, 4, 0}, []int64{5, 6, 7, 8, 0}),
	}
	seen := map[Digest]string{d: "base"}
	for name, v := range variants {
		vd := v.Digest()
		if prev, dup := seen[vd]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[vd] = name
	}

	// Node indices are part of the identity: swapping the labels of the two
	// siblings (keeping the multiset of weights) must change the digest,
	// because index-sensitive consumers (replay orders, natural-postorder)
	// distinguish the two trees.
	relabeled := digestTree(t, []int{-1, 0, 0, 2}, []int64{1, 3, 2, 4}, []int64{5, 7, 6, 8})
	if relabeled.Digest() == d {
		t.Fatal("relabeled siblings share the digest")
	}
}

// Digest hashes once: a second call returns the cached digest without
// allocating, and concurrent first calls (run under -race in CI) agree
// with each other and with the hash itself.
func TestDigestIsCached(t *testing.T) {
	tr, err := Random(rand.New(rand.NewSource(7)), RandomOptions{Nodes: 500, MaxF: 50, MaxN: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.hash()
	var wg sync.WaitGroup
	got := make([]Digest, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tr.Digest()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("concurrent first call %d returned %s, want %s", i, d, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.Digest() }); allocs != 0 {
		t.Fatalf("a cached Digest call allocates %v times", allocs)
	}
	if tr.Digest() != want {
		t.Fatal("cached digest differs from the hash")
	}
}

func TestParseDigestRoundTrip(t *testing.T) {
	d := digestTree(t, []int{-1, 0, 0}, []int64{1, 2, 3}, []int64{4, 5, 6}).Digest()
	got, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: %v != %v", got, d)
	}
	for _, bad := range []string{"", "abc", d.String() + "00", strings.ToUpper(d.String()[:63]) + "g"} {
		if _, err := ParseDigest(bad); err == nil {
			t.Fatalf("ParseDigest(%q) accepted", bad)
		}
	}
}
