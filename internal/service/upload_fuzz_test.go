package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tree"
)

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
