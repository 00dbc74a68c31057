package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestMatrixMarketRejectsTrailingGarbage(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\nwat\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n1 2 4.0\n",
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("ReadMatrixMarket(%q) succeeded, want trailing-garbage error", c)
		}
	}
	// Trailing comments and blank lines stay legal.
	ok := "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n% done\n\n  \n"
	if _, err := ReadMatrixMarket(strings.NewReader(ok)); err != nil {
		t.Fatalf("trailing comments rejected: %v", err)
	}
}

func TestMatrixMarketRejectsSkewDiagonal(t *testing.T) {
	bad := "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1.0\n3 3 2.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(bad)); err == nil {
		t.Fatal("explicit diagonal in skew-symmetric file accepted, want error")
	}
	good := "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1.0\n3 2 2.0\n"
	m, err := ReadMatrixMarket(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (both triangles)", m.NNZ())
	}
}

func TestMatrixMarketHeaderCaseAndCR(t *testing.T) {
	in := "%%matrixmarket MATRIX Coordinate Pattern SYMMETRIC\r\n% c\r\n3 3 2\r\n2 1\r\n3 1\r\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.NNZ() != 4 {
		t.Fatalf("got n=%d nnz=%d, want 3/4", m.N(), m.NNZ())
	}
}

func TestMatrixMarketImplausibleHeader(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2000000000 2000000000 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1000000\n1 1\n",
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("ReadMatrixMarket(%q) succeeded, want plausibility error", c)
		}
	}
}

// TestParserReuseZeroAlloc pins the tentpole property: steady-state parsing
// with a reused Parser performs no heap allocations.
func TestParserReuseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := RandomSymmetric(rng, 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var p Parser
	if _, err := p.ParseBytes(data); err != nil {
		t.Fatal(err) // warm the buffers
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.ParseBytes(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseBytes allocates %.1f times per op in steady state, want 0", allocs)
	}
}

func TestParserMatchesReadMatrixMarket(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var p Parser
	for trial := 0; trial < 20; trial++ {
		m, err := RandomSymmetric(rng, 1+rng.Intn(80), 1+4*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteMatrixMarket(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := p.ParseBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != m.N() || !reflect.DeepEqual(got.rowIdx, m.rowIdx) || !reflect.DeepEqual(got.colPtr, m.colPtr) {
			t.Fatalf("trial %d: parser mismatch", trial)
		}
	}
}

// FuzzReadMatrixMarket checks that the parser never panics, agrees with
// the preserved reference parser on every input, and round-trips what it
// accepts.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 0.5\n3 2 -1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 1\n3 1 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n% c\n\n4 4 0\n"))
	f.Add([]byte("junk"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.5\n2 1\t-1\r\n 3 3\n3 2 \n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 0000000000000000002\n+2 1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		m, err := p.ParseBytes(data)
		// The preserved reference parser makes the same decision, with
		// the same error text, and builds the same matrix.
		var rp refParser
		want, wantErr := rp.refParseBytes(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return // must not panic; any error is acceptable on junk
		}
		if m.N() != want.N() || !reflect.DeepEqual(m.colPtr, want.colPtr) || !reflect.DeepEqual(m.rowIdx, want.rowIdx) {
			t.Fatal("matrix differs from the reference parser's")
		}
		// Round trip: write what we parsed, reparse, compare exactly.
		var buf bytes.Buffer
		if err := m.WriteMatrixMarket(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		var p2 Parser
		back, err := p2.ParseBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("reparse of own output failed: %v", err)
		}
		if back.N() != m.N() || !reflect.DeepEqual(back.colPtr, m.colPtr) || !reflect.DeepEqual(back.rowIdx, m.rowIdx) {
			t.Fatal("round trip mismatch")
		}
	})
}
