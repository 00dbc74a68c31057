package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	data, err := encodeBatchBinary(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	decoded, workers, err := decodeBatchBinary(data)
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
	again, err := encodeBatchBinary(decoded, 3)
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
	data, err := encodeBatchBinary(jobs, 0)
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
		if _, _, err := decodeBatchBinary(c); err == nil {
			t.Errorf("%s: corrupt request decoded without error", name)
		}
	}
}

// The binary request decoder reads bodies straight off the network: it
// must never panic, and any body it accepts must survive re-encoding — the
// same workers count and the same jobs come back out.
func FuzzBatchBinaryDecode(f *testing.F) {
	jobs := binaryFixtureJobs(f)
	for _, seed := range []struct {
		jobs    []schedule.Job
		workers int
	}{{jobs, 0}, {jobs, 3}, {jobs[1:2], 1}, {nil, 0}} {
		data, err := encodeBatchBinary(seed.jobs, seed.workers)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A workers count past math.MaxInt once decoded to a negative int that
	// re-encoded as 0.
	empty, err := encodeBatchBinary(nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(binary.AppendUvarint(append([]byte{}, empty[:3]...), 1<<63), empty[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, workers, err := decodeBatchBinary(data)
		if err != nil {
			return
		}
		again, err := encodeBatchBinary(jobs, workers)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		back, backWorkers, err := decodeBatchBinary(again)
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
	})
}

// Content negotiation is per header and independent: the binary request
// form and the binary response stream each switch on their own header, and
// parameters or lists in the header values are tolerated.
func TestContentNegotiation(t *testing.T) {
	if !isBinaryBatch(ContentTypeBinaryBatch) || !isBinaryBatch(ContentTypeBinaryBatch+"; charset=x") {
		t.Fatal("binary batch media type not recognized")
	}
	if isBinaryBatch("application/json") || isBinaryBatch("") {
		t.Fatal("JSON request misrecognized as binary")
	}
	if !acceptsBinaryRows(ContentTypeBinaryRows) || !acceptsBinaryRows("application/jsonl, "+ContentTypeBinaryRows+";q=0.9") {
		t.Fatal("binary rows Accept not recognized")
	}
	if acceptsBinaryRows("") || acceptsBinaryRows("*/*") || acceptsBinaryRows("application/jsonl") {
		t.Fatal("JSON-only Accept misrecognized as binary")
	}
}

// A JSON request that accepts the binary stream gets binary frames back —
// the reader reassembles rows identical to a JSON Lines exchange.
func TestBinaryResponseToJSONRequest(t *testing.T) {
	fixture := binaryFixtureJobs(t)
	jobs := []schedule.Job{
		{Instance: "a", Tree: fixture[0].Tree, Algorithm: "postorder"},
		{Instance: "a", Tree: fixture[0].Tree, Algorithm: "liu"},
	}
	srv := httptest.NewServer(NewServer(nil, 0).Handler())
	t.Cleanup(srv.Close)

	jsonClient := NewClient(srv.URL, srv.Client())
	want, err := jsonClient.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeBatch(jobs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(context.Background(), http.MethodPost, srv.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", ContentTypeBinaryRows)
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !isBinaryRows(ct) {
		t.Fatalf("response Content-Type %q, want %q", ct, ContentTypeBinaryRows)
	}
	rows := make([]schedule.Row, len(jobs))
	got := make([]bool, len(jobs))
	if err := readBinaryResponse(resp.Body, jobs, schedule.BatchOptions{}, rows, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := rows[i], want[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs binary vs json: %+v vs %+v", i, rows[i], want[i])
		}
	}
}
