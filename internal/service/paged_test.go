package service_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/schedule"
	"repro/internal/service"
)

// startPagedServer starts a server whose backend caches into a paged row
// store, wired as the /v1/warm sink like cmd/scheduled does.
func startPagedServer(t *testing.T, path string) (*service.Client, *schedule.PagedStore) {
	t.Helper()
	rs, err := schedule.OpenPagedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{
		Backend: schedule.NewCached(schedule.Local{}, rs),
		Store:   rs,
	}).Handler())
	t.Cleanup(srv.Close)
	return service.NewClient(srv.URL, srv.Client()), rs
}

// A shard mixing a paged-store-cached child with a plain child returns the
// rows of a local run bit-identically: the on-disk cache format is
// invisible above the Backend interface, exactly like the transport.
func TestShardMixesPagedAndPlainChildren(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pagedChild, rs := startPagedServer(t, filepath.Join(t.TempDir(), "rows.paged"))
	plainChild := startServer(t, nil)
	shard, err := schedule.NewShard(pagedChild, plainChild)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualNoTime(t, "mixed paged shard vs local", rows, local)
	if rs.Len() == 0 {
		t.Fatal("the paged child's share of the batch banked no rows")
	}
	// A second pass over the same jobs is bit-identical again — the paged
	// child now answers its share from disk.
	again, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqualNoTime(t, "warm mixed paged shard vs local", again, local)
}

// /v1/warm lands rows in the paged store: entries pushed over the wire are
// served back bit-identically, so cross-shard gossip works unchanged when a
// child keeps its cache out of core.
func TestWarmIntoPagedStore(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]schedule.WarmEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = schedule.WarmEntry{Key: schedule.CacheKey(j), Row: local[i]}
	}
	client, rs := startPagedServer(t, filepath.Join(t.TempDir(), "rows.paged"))
	n, err := client.WarmRows(context.Background(), entries)
	if err != nil || n != len(entries) {
		t.Fatalf("WarmRows stored %d entries, %v; want %d", n, err, len(entries))
	}
	if rs.Len() != len(entries) {
		t.Fatalf("paged store holds %d rows after warm, want %d", rs.Len(), len(entries))
	}
	for i, e := range entries {
		got, ok := rs.Get(e.Key)
		if !ok || got != local[i] {
			t.Fatalf("warmed row %d served %+v, %v; want %+v", i, got, ok, local[i])
		}
	}
}

// Concurrent /v1/warm pushes into one paged store are safe (this test is
// in CI's race-detector package list): every writer replays the whole
// entry set in a rotated order, so each key sees racing duplicate stores,
// and the store still serves every row back bit-identically.
func TestConcurrentWarmIntoPagedStore(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]schedule.WarmEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = schedule.WarmEntry{Key: schedule.CacheKey(j), Row: local[i]}
	}
	client, rs := startPagedServer(t, filepath.Join(t.TempDir(), "rows.paged"))

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		pivot := w * len(entries) / writers
		rot := append(append([]schedule.WarmEntry{}, entries[pivot:]...), entries[:pivot]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := client.WarmRows(context.Background(), rot); err != nil || n != len(rot) {
				t.Errorf("concurrent WarmRows stored %d entries, %v; want %d", n, err, len(rot))
			}
		}()
	}
	wg.Wait()
	if rs.Len() != len(entries) {
		t.Fatalf("store holds %d rows after %d racing warm pushes, want %d", rs.Len(), writers, len(entries))
	}
	for i, e := range entries {
		got, ok := rs.Get(e.Key)
		if !ok || got != local[i] {
			t.Fatalf("row %d after racing warms: %+v, %v; want %+v", i, got, ok, local[i])
		}
	}
}
