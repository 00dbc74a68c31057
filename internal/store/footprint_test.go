package store

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentFootprintBounded pins the out-of-core property: as the file
// grows 4x, the store's resident memory stays within the clean-page cache
// bound instead of tracking the data. This is what lets a result cache far
// larger than RAM stay usable.
func TestResidentFootprintBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap pins are meaningless under the race detector")
	}
	path := filepath.Join(t.TempDir(), "kv.paged")
	opt := Options{PageSize: 1024, MaxCachedPages: 32, AutoCommitPages: 64}
	db, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	val := make([]byte, 200)
	insert := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			for j := range val {
				val[j] = byte(i + j)
			}
			if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	readPass := func(n int) {
		t.Helper()
		for i := 0; i < n; i += 7 {
			if _, ok, err := db.Get(nil, []byte(fmt.Sprintf("key-%06d", i))); err != nil || !ok {
				t.Fatalf("get %d: %v, %v", i, ok, err)
			}
		}
	}

	const base = 3000
	insert(0, base)
	readPass(base)
	before := heapInUse()
	smallPages := db.Stats().FilePages

	insert(base, 4*base)
	readPass(4 * base)
	after := heapInUse()

	s := db.Stats()
	if s.CachedPages > opt.MaxCachedPages {
		t.Fatalf("clean cache holds %d pages, bound is %d", s.CachedPages, opt.MaxCachedPages)
	}
	if s.FilePages < 3*smallPages {
		t.Fatalf("file only grew from %d to %d pages; the pin would prove nothing", smallPages, s.FilePages)
	}
	// The file quadrupled (~2.5 MiB of new records); resident memory may
	// wiggle with GC timing but must stay far below the data growth.
	grownBytes := uint64(s.FilePages-smallPages) * uint64(opt.PageSize)
	var growth uint64
	if after > before {
		growth = after - before
	}
	if growth > grownBytes/4 {
		t.Fatalf("heap grew %d bytes while the file grew %d: resident footprint tracks the data", growth, grownBytes)
	}
}
