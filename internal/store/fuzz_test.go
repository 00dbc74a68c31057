package store

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzPagedStoreOps drives a random put/get/delete/reopen/crash schedule
// against the paged store and a plain map model, requiring identical
// results at every step and after a final full scan. The key space is kept
// small so overwrites, deletes of live keys and page churn dominate. The
// crash op Syncs and remembers the journal length that Sync acknowledged;
// after more ops — background commits included — the image cut at that
// length must reopen as the acknowledged model.
func FuzzPagedStoreOps(f *testing.F) {
	f.Add([]byte{0, 8, 16, 2, 3, 4})
	f.Add([]byte{1, 1, 1, 4, 1, 2, 2, 2, 4, 0})
	f.Add(bytes.Repeat([]byte{0, 5, 2, 5, 4}, 8))
	f.Add([]byte{253, 7, 130, 64, 201, 4, 4, 33, 17, 90, 255, 0})
	f.Add(append(bytes.Repeat([]byte{0, 9, 16, 25, 5}, 6), 2, 10, 3, 5, 1, 4, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewMemBacking()
		opt := Options{PageSize: MinPageSize, MaxCachedPages: 4, AutoCommitPages: 4}
		db, err := OpenBacking(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		key := func(op byte) string { return fmt.Sprintf("k%d", (op>>3)%16) }
		var crash *crashState // the last crash op's acknowledged state
		checkCrash := func() {
			t.Helper()
			if crash == nil {
				return
			}
			re, err := OpenBacking(b.Snapshot(crash.acked), opt)
			if err != nil {
				t.Fatalf("reopen at the acknowledged %d bytes: %v", crash.acked, err)
			}
			got := map[string]string{}
			if err := re.Scan(func(k, v []byte) error {
				got[string(k)] = string(v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !sameRowMaps(got, crash.rows) {
				t.Fatalf("crash at the acknowledged %d bytes reopened %d rows, the acknowledged model has %d", crash.acked, len(got), len(crash.rows))
			}
		}
		for i, op := range ops {
			k := key(op)
			switch op % 6 {
			case 0: // small inline record
				v := fmt.Sprintf("v%d-%d", i, op)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case 1: // record large enough to overflow a page
				v := string(bytes.Repeat([]byte{op}, MinPageSize/2+int(op)*5))
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case 2:
				ok, err := db.Delete([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				_, want := model[k]
				if ok != want {
					t.Fatalf("op %d: delete %q = %v, model says %v", i, k, ok, want)
				}
				delete(model, k)
			case 3:
				v, ok, err := db.Get(nil, []byte(k))
				if err != nil {
					t.Fatal(err)
				}
				want, inModel := model[k]
				if ok != inModel || (ok && string(v) != want) {
					t.Fatalf("op %d: get %q = %q, %v; model has %q, %v", i, k, v, ok, want, inModel)
				}
			case 4: // close (commits) and reopen over the same bytes
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = OpenBacking(b, opt); err != nil {
					t.Fatal(err)
				}
			case 5: // crash: check the previous crash point, arm a new one
				checkCrash()
				if err := db.Sync(); err != nil {
					t.Fatal(err)
				}
				crash = &crashState{rows: cloneRows(model), acked: b.JournalBytes()}
			}
		}
		checkCrash()
		if int(db.Len()) != len(model) {
			t.Fatalf("Len = %d, model has %d", db.Len(), len(model))
		}
		seen := map[string]string{}
		if err := db.Scan(func(k, v []byte) error {
			seen[string(k)] = string(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(model) {
			t.Fatalf("scan saw %d rows, model has %d", len(seen), len(model))
		}
		for k, want := range model {
			if seen[k] != want {
				t.Fatalf("scan %q = %q, want %q", k, seen[k], want)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
