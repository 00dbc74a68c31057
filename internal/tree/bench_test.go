package tree

import (
	"math/rand"
	"testing"
)

// benchTree draws the p-node random tree the benchmarks below share,
// deterministic across runs.
func benchTree(b *testing.B, p int) *Tree {
	b.Helper()
	tr, err := Random(rand.New(rand.NewSource(2011)), RandomOptions{Nodes: p, MaxF: 100, MaxN: 40})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkNew(b *testing.B) {
	tr := benchTree(b, 3000)
	parent := make([]int, tr.Len())
	for i := range parent {
		parent[i] = tr.Parent(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(parent, tr.f, tr.n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	data := benchTree(b, 3000).AppendBinary(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// digestSink keeps BenchmarkDigest's result live.
var digestSink Digest

func BenchmarkDigest(b *testing.B) {
	tr := benchTree(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = tr.Digest()
	}
}
