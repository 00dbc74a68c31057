package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tree"

	// The server side evaluates against the registry: register everything.
	_ "repro/internal/minio"
	_ "repro/internal/traversal"
)

func binaryFixtureJobs(t testing.TB) []schedule.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	t1, err := tree.Random(rng, tree.RandomOptions{Nodes: 25, MaxF: 9, MaxN: 5})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := tree.Random(rng, tree.RandomOptions{Nodes: 40, MaxF: 12, MaxN: 7, Attach: tree.AttachKind(1)})
	if err != nil {
		t.Fatal(err)
	}
	order := t1.TopDown()
	return []schedule.Job{
		{Instance: "a", Tree: t1, Algorithm: "postorder"},
		{Instance: "a", Tree: t1, Algorithm: "minmem", Order: order, Memory: 123, Window: 4},
		{Instance: "b", Tree: t2, Algorithm: "liu", Memory: math.MaxInt64},
		{Instance: "a-again", Tree: t1, Algorithm: "minio", Order: order, Memory: -7},
	}
}

// The binary request round-trips jobs exactly, deduplicating trees and
// order slices: jobs that shared an order before encoding share one []int
// after decoding too.
func TestBatchBinaryRoundTrip(t *testing.T) {
	jobs := binaryFixtureJobs(t)
	data, _, err := encodeBatchBinary(jobs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, workers, err := decodeBatchBinary(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if workers != 3 {
		t.Fatalf("workers %d, want 3", workers)
	}
	if len(decoded) != len(jobs) {
		t.Fatalf("%d jobs, want %d", len(decoded), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], decoded[i]
		if a.Instance != b.Instance || a.Algorithm != b.Algorithm || a.Memory != b.Memory || a.Window != b.Window {
			t.Fatalf("job %d scalar fields differ: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Order, b.Order) {
			t.Fatalf("job %d order differs: %v vs %v", i, a.Order, b.Order)
		}
		var sb1, sb2 strings.Builder
		if err := a.Tree.Write(&sb1); err != nil {
			t.Fatal(err)
		}
		if err := b.Tree.Write(&sb2); err != nil {
			t.Fatal(err)
		}
		if sb1.String() != sb2.String() {
			t.Fatalf("job %d tree differs after round trip", i)
		}
	}
	if decoded[0].Tree != decoded[1].Tree || decoded[0].Tree != decoded[3].Tree {
		t.Fatal("jobs over one tree decoded to distinct *tree.Tree values")
	}
	if decoded[1].Tree == decoded[2].Tree {
		t.Fatal("jobs over distinct trees decoded to one *tree.Tree")
	}
	if &decoded[1].Order[0] != &decoded[3].Order[0] {
		t.Fatal("jobs sharing an order slice decoded to distinct slices")
	}
	// Deterministic encoding: re-encoding the decoded jobs reproduces the
	// bytes (tree and order tables rebuild in first-reference order).
	again, _, err := encodeBatchBinary(decoded, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding decoded jobs changed the bytes")
	}
}

// Corrupt binary requests are rejected with an error, never a panic or a
// silent partial batch.
func TestBatchBinaryRejectsCorruption(t *testing.T) {
	jobs := binaryFixtureJobs(t)
	data, _, err := encodeBatchBinary(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short":         data[:2],
		"bad magic":     append([]byte{0x7B}, data[1:]...),
		"bad kind":      append([]byte{data[0], 'R'}, data[2:]...),
		"bad version":   append([]byte{data[0], data[1], 99}, data[3:]...),
		"trailing junk": append(append([]byte{}, data...), 0x00),
	}
	for i := 3; i < len(data); i += 7 {
		cases["truncated@"+string(rune('0'+i%10))] = data[:i]
	}
	for name, c := range cases {
		if _, _, err := decodeBatchBinary(c, nil); err == nil {
			t.Errorf("%s: corrupt request decoded without error", name)
		}
	}
}

// fixedTrees resolves the digests of a fixed tree set and retains nothing.
type fixedTrees map[tree.Digest]*tree.Tree

func (f fixedTrees) resolve(d tree.Digest) (*tree.Tree, bool) {
	t, ok := f[d]
	return t, ok
}

func (f fixedTrees) adopt(t *tree.Tree) *tree.Tree { return t }

// refAll references every tree of a batch.
func refAll(*tree.Tree) bool { return true }

// The binary request decoder reads bodies straight off the network: it
// must never panic, any body it accepts must survive re-encoding — the
// same workers count and the same jobs come back out — and a reference
// that resolves nowhere must come back as an *unknownTreesError naming
// exactly the unresolved trees.
func FuzzBatchBinaryDecode(f *testing.F) {
	jobs := binaryFixtureJobs(f)
	known := fixedTrees{}
	for _, j := range jobs {
		known[j.Tree.Digest()] = j.Tree
	}
	stranger, err := tree.Random(rand.New(rand.NewSource(12)), tree.RandomOptions{Nodes: 10, MaxF: 4, MaxN: 3})
	if err != nil {
		f.Fatal(err)
	}
	unknownJobs := append([]schedule.Job{{Instance: "s", Tree: stranger, Algorithm: "postorder"}}, jobs...)
	refFirst := func(t *tree.Tree) bool { return t == jobs[0].Tree }
	for _, seed := range []struct {
		jobs    []schedule.Job
		workers int
		ref     func(*tree.Tree) bool
	}{
		{jobs, 0, nil}, {jobs, 3, nil}, {jobs[1:2], 1, nil}, {nil, 0, nil},
		{jobs, 2, refAll}, {jobs, 0, refFirst}, {unknownJobs, 1, refAll}, {unknownJobs, 0, refFirst},
	} {
		data, _, err := encodeBatchBinary(seed.jobs, seed.workers, seed.ref)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A workers count past math.MaxInt once decoded to a negative int that
	// re-encoded as 0.
	empty, _, err := encodeBatchBinary(nil, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(binary.AppendUvarint(append([]byte{}, empty[:3]...), 1<<63), empty[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, workers, err := decodeBatchBinary(data, known)
		var unknown *unknownTreesError
		if errors.As(err, &unknown) {
			if len(unknown.digests) == 0 {
				t.Fatal("unknown-trees error lists no digest")
			}
			for _, d := range unknown.digests {
				if _, ok := known[d]; ok {
					t.Fatalf("resolvable digest %s reported unknown", d)
				}
			}
			return
		}
		if err != nil {
			return
		}
		again, _, err := encodeBatchBinary(jobs, workers, nil)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		back, backWorkers, err := decodeBatchBinary(again, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if backWorkers != workers || len(back) != len(jobs) {
			t.Fatalf("round trip changed the batch: %d workers, %d jobs → %d workers, %d jobs",
				workers, len(jobs), backWorkers, len(back))
		}
		for i := range jobs {
			a, b := jobs[i], back[i]
			if a.Instance != b.Instance || a.Algorithm != b.Algorithm || a.Memory != b.Memory ||
				a.Window != b.Window || len(a.Order) != len(b.Order) {
				t.Fatalf("job %d changed: %+v → %+v", i, a, b)
			}
			for k := range a.Order {
				if a.Order[k] != b.Order[k] {
					t.Fatalf("job %d order changed at %d", i, k)
				}
			}
			if !bytes.Equal(a.Tree.AppendBinary(nil), b.Tree.AppendBinary(nil)) {
				t.Fatalf("job %d tree changed", i)
			}
		}
		// Referencing every tree resolves exactly the known ones.
		refs, _, err := encodeBatchBinary(jobs, workers, refAll)
		if err != nil {
			t.Fatal(err)
		}
		want := map[tree.Digest]bool{}
		for _, j := range jobs {
			if _, ok := known[j.Tree.Digest()]; !ok {
				want[j.Tree.Digest()] = true
			}
		}
		_, _, err = decodeBatchBinary(refs, known)
		switch {
		case len(want) == 0 && err != nil:
			t.Fatalf("references to known trees do not decode: %v", err)
		case len(want) > 0 && !errors.As(err, &unknown):
			t.Fatalf("references to %d unknown trees: err %v, want an unknown-trees error", len(want), err)
		case len(want) > 0 && len(unknown.digests) != len(want):
			t.Fatalf("unknown-trees error lists %d digests, want %d", len(unknown.digests), len(want))
		}
	})
}

// The request form is recognized by its media type, parameters tolerated.
func TestContentNegotiation(t *testing.T) {
	if !isBinaryBatch(ContentTypeBinaryBatch) || !isBinaryBatch(ContentTypeBinaryBatch+"; charset=x") {
		t.Fatal("binary batch media type not recognized")
	}
	if isBinaryBatch("application/json") || isBinaryBatch("") {
		t.Fatal("JSON request misrecognized as binary")
	}
}

// paddedBatch is a 'B' body whose header claims count entries of one
// table, followed by count zero bytes. The tables before it are empty.
func paddedBatch(table string, count int) []byte {
	data := []byte{schedule.WireMagic, batchRequestKind, binaryBatchVersion, 0} // workers 0
	for _, t := range []string{"trees", "orders", "jobs"} {
		if t == table {
			data = binary.AppendUvarint(data, uint64(count))
			return append(data, make([]byte, count)...)
		}
		data = append(data, 0)
	}
	panic("unknown table " + table)
}

// A body whose header claims as many table entries as it has bytes is
// refused, with a 4xx through the handler, without allocating for the
// count: sized by the count alone, the job table of a 1 MiB body takes
// 92 MB.
func TestBatchBinaryPaddedCountRefusedCheaply(t *testing.T) {
	for _, table := range []string{"trees", "orders", "jobs"} {
		for _, size := range []int{1 << 20, 8 << 20} {
			data := paddedBatch(table, size)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := decodeBatchBinary(data, nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s padded to %d bytes decoded", table, size)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%s padded to %d bytes: decoding allocated %d bytes, want under 1 MB", table, size, alloc)
			}
		}
		// Through the handler the body is read whole first, so it stays
		// small enough for its own copy to fit under the bound.
		h := NewServerWith(ServerOptions{Workers: 1}).Handler()
		data := paddedBatch(table, 64<<10)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
		req.Header.Set("Content-Type", ContentTypeBinaryBatch)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s padded: answered %d, want 4xx: %s", table, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s padded: the handler allocated %d bytes, want under 1 MB", table, alloc)
		}
	}
}
