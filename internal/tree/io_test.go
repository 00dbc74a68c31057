package tree

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A stream of concatenated .tree documents decodes one tree at a time, in
// order, ending with io.EOF — the substrate for piping corpora through the
// grid evaluator.
func TestDecoderStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var want []*Tree
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		tr, err := Random(rng, RandomOptions{Nodes: 10 + 7*i, MaxF: 20, MaxN: 5})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tr)
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("# interleaved comment\n\n")
	}
	dec := newDecoder(&buf)
	for i, w := range want {
		got, err := dec.decode()
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.ParentVector(), w.ParentVector()) ||
			!reflect.DeepEqual(got.FVector(), w.FVector()) ||
			!reflect.DeepEqual(got.NVector(), w.NVector()) {
			t.Fatalf("document %d differs after decode", i)
		}
	}
	if _, err := dec.decode(); err != io.EOF {
		t.Fatalf("after last document: %v, want io.EOF", err)
	}
	if _, err := dec.decode(); err != io.EOF {
		t.Fatalf("repeated decode after EOF: %v, want io.EOF", err)
	}
}

// A document cut off mid-way is an error, not EOF; the next document's
// error messages keep counting lines across the whole stream.
func TestDecoderErrors(t *testing.T) {
	dec := newDecoder(strings.NewReader("p 2\n0 -1 1 0\n"))
	if _, err := dec.decode(); err == nil || err == io.EOF {
		t.Fatalf("truncated document: %v, want a hard error", err)
	}

	dec = newDecoder(strings.NewReader("p 1\n0 -1 1 0\nnot a header\n"))
	if _, err := dec.decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.decode(); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("second document error does not carry the stream line number: %v", err)
	}
}

// Read rejects trailing content: it parses exactly one document.
func TestReadRejectsTrailing(t *testing.T) {
	doc := "p 1\n0 -1 1 0\n"
	if _, err := Read(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(strings.NewReader(doc + doc)); err == nil {
		t.Fatal("two concatenated documents accepted by Read")
	}
	// Trailing comments and blank lines are not content.
	if _, err := Read(strings.NewReader(doc + "\n# trailing comment\n")); err != nil {
		t.Fatalf("trailing comment rejected: %v", err)
	}
}

// FuzzTreeRead feeds arbitrary bytes to Read, which must not panic, and
// every tree it accepts must come back under its own digest from a round
// trip through the text and the binary forms.
func FuzzTreeRead(f *testing.F) {
	var texts []string
	for seed := int64(1); seed <= 2; seed++ {
		tr, err := Random(rand.New(rand.NewSource(seed)), RandomOptions{Nodes: 6, MaxF: 9, MaxN: 5})
		if err != nil {
			f.Fatal(err)
		}
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			f.Fatal(err)
		}
		texts = append(texts, sb.String())
	}
	for _, text := range []string{texts[0], texts[0] + texts[0], "", "p 2\n-1 1 1\n1 1 1\n", "garbage", `{"trees":[`, "p 1", texts[1]} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		tr, err := Read(bytes.NewReader(text))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			t.Fatal(err)
		}
		textual, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("accepted tree does not re-read: %v", err)
		}
		binaryForm, rest, err := DecodeBinary(tr.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			t.Fatalf("accepted tree does not decode from binary: %v (%d bytes left)", err, len(rest))
		}
		for _, back := range []*Tree{textual, binaryForm} {
			if back.Digest() != tr.Digest() {
				t.Fatalf("round trip digest %s, want %s", back.Digest(), tr.Digest())
			}
		}
	})
}

// A .tree text that declares a huge node count and carries no node line
// (or one) is refused without allocating for the count it declares.
func TestHeaderOnlyTreeTextRefusedCheaply(t *testing.T) {
	for _, text := range []string{"p 7000000000\n", "p 10000000\n0 -1 1 1\n"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q accepted", text)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%q allocated %d bytes, want under 1 MB", text, alloc)
		}
	}
}
