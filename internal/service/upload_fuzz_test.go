package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tree"
)

// FuzzTreeUpload feeds arbitrary bodies to POST /v1/trees. The handler
// must answer 2xx or 4xx and never panic, and every tree it accepts must
// come back under the digest of its own round trip through the textual
// and the binary .tree forms.
func FuzzTreeUpload(f *testing.F) {
	var texts []string
	for seed := int64(1); seed <= 2; seed++ {
		tr, err := tree.Random(rand.New(rand.NewSource(seed)), tree.RandomOptions{Nodes: 6, MaxF: 9, MaxN: 5})
		if err != nil {
			f.Fatal(err)
		}
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			f.Fatal(err)
		}
		texts = append(texts, sb.String())
	}
	for _, trees := range [][]string{texts, {texts[0], texts[0]}, {}, {"p 2\n-1 1 1\n1 1 1\n"}, {"garbage"}} {
		body, err := json.Marshal(service.TreeUploadRequest{Trees: trees})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"trees":[`))
	f.Add([]byte(`{"trees":"p 1"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/trees", bytes.NewReader(body))
		service.NewServer(nil, 1).Handler().ServeHTTP(rec, req)
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("upload answered %d: %s", rec.Code, rec.Body)
		}
		// The handler reads the first JSON value of the body, as here.
		var up service.TreeUploadRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&up); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		var resp service.TreeUploadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("upload response: %v", err)
		}
		if len(resp.Digests) != len(up.Trees) || resp.Added+resp.Deduped != len(up.Trees) {
			t.Fatalf("%d trees acknowledged as %d digests, %d added, %d deduped",
				len(up.Trees), len(resp.Digests), resp.Added, resp.Deduped)
		}
		for i, text := range up.Trees {
			tr, err := tree.Read(strings.NewReader(text))
			if err != nil {
				t.Fatalf("accepted tree %d does not parse: %v", i, err)
			}
			var sb strings.Builder
			if err := tr.Write(&sb); err != nil {
				t.Fatal(err)
			}
			textual, err := tree.Read(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("tree %d does not re-read: %v", i, err)
			}
			binaryForm, _, err := tree.DecodeBinary(tr.AppendBinary(nil))
			if err != nil {
				t.Fatalf("tree %d does not decode from binary: %v", i, err)
			}
			for _, back := range []*tree.Tree{textual, binaryForm} {
				if got := back.Digest().String(); got != resp.Digests[i] {
					t.Fatalf("tree %d acknowledged as %s, round trip digests %s", i, resp.Digests[i], got)
				}
			}
		}
	})
}

// A .tree text that declares a huge node count and carries no node line
// must be refused with a 4xx by /v1/trees, the endpoint that decodes tree
// text, without allocating for the count it declares.
func TestHeaderOnlyTreeTextRefusedCheaply(t *testing.T) {
	for _, c := range []struct{ path, body string }{
		{"/v1/trees", `{"trees":["p 7000000000\n"]}`},
		{"/v1/trees", `{"trees":["p 10000000\n0 -1 1 1\n"]}`},
	} {
		h := service.NewServer(nil, 1).Handler()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s %q answered %d, want 4xx: %s", c.path, c.body, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s %q allocated %d bytes, want under 1 MB", c.path, c.body, alloc)
		}
	}
}

// paddedWarmBody is a /v1/warm body of about size bytes whose entries are
// all empty objects: each decodes to a zero entry, which no check passes.
func paddedWarmBody(size int) []byte {
	body := []byte(`{"entries":[{}`)
	for len(body) < size-2 {
		body = append(body, `,{}`...)
	}
	return append(body, `]}`...)
}

// FuzzWarmUpload feeds arbitrary bodies to POST /v1/warm on a server with
// a row store. The handler must answer 2xx or 4xx and never panic. A body
// it refuses stores nothing; a body it accepts decodes as a WarmRequest
// whose entries all pass schedule.CheckWarmEntry, and every one of them
// is stored.
func FuzzWarmUpload(f *testing.F) {
	tr, err := tree.NestedHarpoon(2, 1, 30, 1)
	if err != nil {
		f.Fatal(err)
	}
	jobs := schedule.MinMemoryGrid([]schedule.Instance{{Name: "h", Tree: tr}}, []string{"postorder", "minmem"})
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(service.WarmRequest{Entries: schedule.NewWarmEntries(jobs, rows)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append([]byte(`{"other":[1,{"entries":2}],"Entries"`), bytes.TrimPrefix(valid, []byte(`{"entries"`))...))
	for _, body := range []string{`{}`, `{"entries":null}`, `{"entries":[]}`, `null`, `[]`, `{"entries":[`, `{"entries":{}}`} {
		f.Add([]byte(body))
	}
	f.Add(paddedWarmBody(4 << 10))
	f.Fuzz(func(t *testing.T, body []byte) {
		store := schedule.NewMemStore()
		h := service.NewServerWith(service.ServerOptions{Store: store}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/warm", bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			if store.Len() != 0 {
				t.Fatalf("refused push (%d) stored %d rows", rec.Code, store.Len())
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("warm answered %d: %s", rec.Code, rec.Body)
		}
		// The handler reads the first JSON value of the body, as here.
		var req service.WarmRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		var resp service.WarmResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("warm response: %v", err)
		}
		if resp.Stored != len(req.Entries) {
			t.Fatalf("%d entries acknowledged as %d stored", len(req.Entries), resp.Stored)
		}
		for i, e := range req.Entries {
			if err := schedule.CheckWarmEntry(e); err != nil {
				t.Fatalf("accepted entry %d fails its check: %v", i, err)
			}
			if _, ok := store.Get(e.Key); !ok {
				t.Fatalf("accepted entry %d not stored", i)
			}
		}
	})
}

// A /v1/warm body padded with empty entries is refused at the first of
// them, before the rest are decoded: a 4xx for under 1 MB of allocation
// however long the padding.
func TestWarmPaddedBodyRefusedCheaply(t *testing.T) {
	h := service.NewServerWith(service.ServerOptions{Store: schedule.NewMemStore()}).Handler()
	for _, size := range []int{1 << 20, 8 << 20} {
		body := paddedWarmBody(size)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/warm", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("padded to %d bytes: answered %d, want 4xx: %s", size, rec.Code, rec.Body)
		}
		if !strings.HasPrefix(rec.Body.String(), "warm entry 0: ") {
			t.Fatalf("padded to %d bytes: refused as %q, want the first entry named", size, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("padded to %d bytes: the handler allocated %d bytes, want under 1 MB", size, alloc)
		}
	}
}
