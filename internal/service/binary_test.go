package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/schedule"
	"repro/internal/service"
)

// rowsEqualNoTime fails the test unless the two row sets are bit-identical
// modulo the Seconds column.
func rowsEqualNoTime(t *testing.T, label string, got, want []schedule.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// A server predating the binary protocol answers a batch with a
// deterministic 400: the client must fail immediately, not retry.
func TestBinaryAgainstLegacyServerFailsFast(t *testing.T) {
	var hits atomic.Int32
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// A pre-binary server JSON-decodes every batch body; the wire magic
		// is not valid JSON, so the request dies with a 400.
		var req json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		t.Error("legacy server decoded a binary body as JSON")
	}))
	t.Cleanup(legacy.Close)
	client := service.NewClient(legacy.URL, legacy.Client())
	client.Retries = 3
	if _, err := client.Run(context.Background(), testJobs(t)[:2], schedule.BatchOptions{}); err == nil {
		t.Fatal("binary batch against a legacy server succeeded")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("legacy server hit %d times, want exactly 1 (400 must not be retried)", n)
	}
}
