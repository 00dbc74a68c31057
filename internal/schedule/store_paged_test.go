package schedule_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schedule"
	"repro/internal/store"
)

// The paged store persists a cached grid: cold fill, fully warm
// bit-identical replay across a reopen, zero algorithm runs when warm.
func TestPagedStoreColdWarm(t *testing.T) {
	jobs := gridJobs(t)
	path := filepath.Join(t.TempDir(), "rows.paged")

	rs, err := schedule.OpenPagedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := schedule.NewCached(schedule.Local{}, rs).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	rs, err = schedule.OpenPagedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Len() != len(jobs) {
		t.Fatalf("reopened store holds %d rows, want %d", rs.Len(), len(jobs))
	}
	counting := &countingBackend{inner: schedule.Local{}}
	warm, err := schedule.NewCached(counting, rs).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("row %d not replayed bit-identically from disk: %+v vs %+v", i, warm[i], cold[i])
		}
	}
	if got := counting.jobs.Load(); got != 0 {
		t.Fatalf("warm disk run executed %d algorithm runs, want 0", got)
	}
}

// Crash the paged store at sampled byte boundaries of its real write
// history (every engine sync point plus a stride of raw offsets): each torn
// image must reopen, replay what survived, recompute only the rest, and —
// once the close was acknowledged — be fully warm.
func TestPagedStoreCrashRecovery(t *testing.T) {
	jobs := gridJobs(t)
	b := store.NewMemBacking()
	opt := schedule.StoreOptions{}
	ps, err := schedule.OpenPagedStoreBacking(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := schedule.NewCached(schedule.Local{}, ps).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	total := b.JournalBytes()
	syncs := b.SyncPoints()
	if total == 0 || len(syncs) == 0 {
		t.Fatalf("workload journaled %d bytes, %d sync points", total, len(syncs))
	}
	cuts := map[int64]bool{0: true, total: true}
	for _, s := range syncs {
		cuts[s] = true
		if s > 0 {
			cuts[s-1] = true // one byte short of durable: previous commit wins
		}
	}
	for c := int64(0); c < total; c += 1 + total/40 {
		cuts[c] = true
	}
	for cut := range cuts {
		img := b.Snapshot(cut)
		re, err := schedule.OpenPagedStoreBacking(img, opt)
		if err != nil {
			if cut >= syncs[0] {
				t.Fatalf("cut %d: reopen failed after the store was initialized: %v", cut, err)
			}
			continue
		}
		counting := &countingBackend{inner: schedule.Local{}}
		rows, err := schedule.NewCached(counting, re).Run(context.Background(), jobs, schedule.BatchOptions{})
		if err != nil {
			t.Fatalf("cut %d: recovery run: %v", cut, err)
		}
		sameRowsNoTime(t, cold, rows, fmt.Sprintf("cut %d", cut))
		if cut >= total && counting.jobs.Load() != 0 {
			t.Fatalf("fully acknowledged image re-ran %d jobs, want 0", counting.jobs.Load())
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// The upgrade guard: a cache file left by a retired row-store format — a
// JSON Lines store, or a binary store with its 0xAB 'S' 1 header — is
// refused at open rather than healed, and the file is left byte for byte
// as it was.
func TestPagedStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"rows.jsonl": []byte(`{"key":"k","row":{"instance":"i","algorithm":"minmem","kind":"minmem","budget":0,"memory":35,"io":0,"writes":0,"seconds":0}}` + "\n"),
		"rows.bin":   append([]byte{schedule.WireMagic, 'S', 1}, "\x05\x01k\x01i\x00"...),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opt := range []schedule.StoreOptions{{}, {MaxEntries: 1}} {
			if ps, err := schedule.OpenPagedStoreWith(path, opt); err == nil {
				ps.Close()
				t.Fatalf("%s opened as a paged store (options %+v)", name, opt)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s changed by the refused open: %q, %v", name, got, err)
		}
	}
}

// A bounded store evicts least-recently-used rows (Get counts as use), and
// recency survives a reopen via in-place stamp rewrites, not a close-time
// file rewrite.
func TestPagedStoreBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.paged")
	opt := schedule.StoreOptions{MaxEntries: 4}
	rs, err := schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := rs.Put(fmt.Sprintf("key-%d", i), schedule.Row{Instance: fmt.Sprintf("i%d", i), Memory: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Len() != 4 {
		t.Fatalf("bounded store holds %d rows, want 4", rs.Len())
	}
	if rs.Evictions() != 6 {
		t.Fatalf("bounded store evicted %d rows, want 6", rs.Evictions())
	}
	// Bump key-6 so the next eviction after a reopen drops key-7 instead.
	if _, ok := rs.Get("key-6"); !ok {
		t.Fatal("key-6 missing before close")
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err = schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Len() != 4 {
		t.Fatalf("reopened bounded store holds %d rows, want 4", rs.Len())
	}
	if err := rs.Put("key-10", schedule.Row{Instance: "i10"}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"key-6", "key-8", "key-9", "key-10"} {
		if _, ok := rs.Get(key); !ok {
			t.Errorf("%s missing after reopen", key)
		}
	}
	if _, ok := rs.Get("key-7"); ok {
		t.Error("key-7 survived although key-6 was more recently used")
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	// A tighter bound trims the file to the most recently used rows on
	// open; that is compaction, not eviction, so the counter starts at 0.
	// The trim is in place: an unbounded reopen finds only the survivors.
	rs, err = schedule.OpenPagedStoreWith(path, schedule.StoreOptions{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Evictions() != 0 {
		t.Fatalf("trimmed reopen len=%d evictions=%d, want 2/0", rs.Len(), rs.Evictions())
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err = schedule.OpenPagedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Len() != 2 {
		t.Fatalf("unbounded reopen of the trimmed file holds %d rows, want 2", rs.Len())
	}
	for _, key := range []string{"key-9", "key-10"} {
		if _, ok := rs.Get(key); !ok {
			t.Errorf("%s lost to the trim although it was among the most recent", key)
		}
	}
}

// Eviction reclaims pages in place: churning far more rows than the bound
// through a bounded paged store must not grow the file, and the resident
// page cache stays within the engine's bound the whole time.
func TestPagedStoreEvictionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.paged")
	ps, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	row := schedule.Row{Instance: "inst", Algorithm: "minmem", Memory: 7, IO: 9}
	var warm int
	for i := 0; i < 64*20; i++ {
		row.Budget = int64(i)
		if err := ps.Put(fmt.Sprintf("key-%d", i), row); err != nil {
			t.Fatal(err)
		}
		if i == 64*2 {
			warm = ps.StoreStats().FilePages
		}
	}
	if ps.Len() != 64 {
		t.Fatalf("bounded store holds %d rows, want 64", ps.Len())
	}
	s := ps.StoreStats()
	if s.FilePages > warm*4 {
		t.Fatalf("file grew from %d to %d pages under eviction churn: eviction is not reclaiming in place", warm, s.FilePages)
	}
	if s.CachedPages > 512 {
		t.Fatalf("resident page cache holds %d pages, beyond the 512-page bound", s.CachedPages)
	}
}
