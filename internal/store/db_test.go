package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// small returns options that force deep trees and frequent page turnover,
// so a few hundred records exercise splits, chains and the free list.
func small() Options {
	return Options{PageSize: MinPageSize, MaxCachedPages: 16, AutoCommitPages: 8}
}

func mustPut(t *testing.T, db *DB, k, v string) {
	t.Helper()
	if err := db.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("put %q: %v", k, err)
	}
}

func mustGet(t *testing.T, db *DB, k, want string) {
	t.Helper()
	// Get appends to dst: the prefix must survive in front of the value.
	v, ok, err := db.Get([]byte("dst:"), []byte(k))
	if err != nil || !ok || string(v) != "dst:"+want {
		t.Fatalf("get %q = %q, %v, %v; want %q", k, v, ok, err, "dst:"+want)
	}
}

func mustMiss(t *testing.T, db *DB, k string) {
	t.Helper()
	if v, ok, err := db.Get(nil, []byte(k)); err != nil || ok {
		t.Fatalf("get %q = %q, %v, %v; want a miss", k, v, ok, err)
	}
}

// Basic life cycle on a real file: put, overwrite, delete, reopen.
func TestPutGetDeleteReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.paged")
	db, err := Open(path, small())
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	// Overwrite half.
	for i := 0; i < n; i += 2 {
		mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("VAL-%03d", i))
	}
	if db.Len() != n {
		t.Fatalf("Len after overwrites = %d, want %d", db.Len(), n)
	}
	// Delete a third.
	deleted := map[int]bool{}
	for i := 0; i < n; i += 3 {
		ok, err := db.Delete([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", i, ok, err)
		}
		deleted[i] = true
	}
	if ok, err := db.Delete([]byte("absent")); err != nil || ok {
		t.Fatalf("delete absent = %v, %v", ok, err)
	}
	db.SetUserMeta(0xBEEF)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, small())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.UserMeta() != 0xBEEF {
		t.Fatalf("UserMeta = %#x, want 0xBEEF", db.UserMeta())
	}
	if int(db.Len()) != n-len(deleted) {
		t.Fatalf("reopened Len = %d, want %d", db.Len(), n-len(deleted))
	}
	seen := 0
	if err := db.Scan(func(k, v []byte) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != n-len(deleted) {
		t.Fatalf("Scan visited %d records, want %d", seen, n-len(deleted))
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		switch {
		case deleted[i]:
			mustMiss(t, db, k)
		case i%2 == 0:
			mustGet(t, db, k, fmt.Sprintf("VAL-%03d", i))
		default:
			mustGet(t, db, k, fmt.Sprintf("val-%03d", i))
		}
	}
}

// Records larger than a page round-trip through overflow chains, and
// deleting them returns the whole chain to the free list.
func TestOverflowRecords(t *testing.T) {
	db, err := OpenBacking(NewMemBacking(), small())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("big-%d", i)
		v := make([]byte, MinPageSize/2+rng.Intn(5*MinPageSize))
		rng.Read(v)
		vals[k] = v
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	for k, want := range vals {
		got, ok, err := db.Get(nil, []byte(k))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("get %q: ok=%v err=%v, %d bytes vs %d", k, ok, err, len(got), len(want))
		}
	}
	filePages := db.Stats().FilePages
	for k := range vals {
		if ok, err := db.Delete([]byte(k)); err != nil || !ok {
			t.Fatalf("delete %q: %v, %v", k, ok, err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Entries != 0 {
		t.Fatalf("entries after deleting all = %d", s.Entries)
	}
	if s.FreePages == 0 {
		t.Fatal("deleting every overflow record freed no pages")
	}
	if s.FilePages > filePages+4 {
		t.Fatalf("file grew from %d to %d pages while only deleting", filePages, s.FilePages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// Steady-state churn over a bounded key set must not grow the file: dead
// pages cycle through the free list back into use instead of extending.
func TestFreeListBoundsFileGrowth(t *testing.T) {
	db, err := OpenBacking(NewMemBacking(), small())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-%03d", i%64)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40) }
	for i := 0; i < 64; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	warm := db.Stats().FilePages
	for i := 64; i < 64*40; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	grown := db.Stats().FilePages
	// 39 more full passes over the same 64 keys: without free-list reuse
	// the file would grow ~40x; with it, it must plateau within a small
	// constant factor of the warm size.
	if grown > warm*4 {
		t.Fatalf("file grew from %d to %d pages under steady-state churn", warm, grown)
	}
}

// A file that is not a paged store is rejected, not "healed" away.
func TestOpenRejectsForeignFile(t *testing.T) {
	b := NewMemBacking()
	if _, err := b.WriteAt(bytes.Repeat([]byte(`{"key":"x"}`+"\n"), 200), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBacking(b, Options{}); err == nil {
		t.Fatal("foreign file opened as a paged store")
	}
	small := NewMemBacking()
	if _, err := small.WriteAt([]byte("short"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBacking(small, Options{}); err == nil {
		t.Fatal("short foreign file opened as a paged store")
	}
}

// The page size is fixed at creation and read back from the file: an open
// with a different requested size keeps the original.
func TestPageSizeSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.paged")
	db, err := Open(path, Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "k", "v")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.PageSize() != 1024 {
		t.Fatalf("page size = %d, want the original 1024", db.PageSize())
	}
	mustGet(t, db, "k", "v")
}

// Out-of-range page sizes are rejected at creation.
func TestPageSizeValidated(t *testing.T) {
	for _, ps := range []int{-1, 1, MinPageSize - 1, MaxPageSize + 1} {
		if _, err := OpenBacking(NewMemBacking(), Options{PageSize: ps}); err == nil {
			t.Errorf("page size %d accepted", ps)
		}
	}
}

// Empty keys and empty values are legal records.
func TestEmptyKeyAndValue(t *testing.T) {
	db, err := OpenBacking(NewMemBacking(), small())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustPut(t, db, "", "empty-key")
	mustPut(t, db, "empty-val", "")
	mustGet(t, db, "", "empty-key")
	mustGet(t, db, "empty-val", "")
}
