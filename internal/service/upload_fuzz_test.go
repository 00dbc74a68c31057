package service_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
