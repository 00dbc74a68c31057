package store

import (
	"bytes"
	"fmt"
	"testing"
)

// crashState is a point-in-time image of the store contents plus the
// journal byte count at which that image became durable (acknowledged).
type crashState struct {
	rows  map[string]string
	acked int64
}

func cloneRows(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sameRowMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCrashRecoveryEveryByte kills the store at every byte boundary of its
// write history — including mid-page and mid-meta-slot tears — reopens the
// torn image, and requires that (a) once any commit was acknowledged the
// file always reopens, (b) every acknowledged write survives, and (c) the
// visible contents equal exactly one committed state, never a torn blend.
func TestCrashRecoveryEveryByte(t *testing.T) {
	b := NewMemBacking()
	// Commits happen only at explicit Sync calls so each recorded state
	// matches one commit record.
	opt := Options{PageSize: MinPageSize, MaxCachedPages: 8, AutoCommitPages: 1 << 20}
	db, err := OpenBacking(b, opt)
	if err != nil {
		t.Fatal(err)
	}

	cur := map[string]string{}
	var states []crashState
	record := func() {
		t.Helper()
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		states = append(states, crashState{rows: cloneRows(cur), acked: b.JournalBytes()})
	}
	put := func(k, v string) {
		t.Helper()
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		cur[k] = v
	}
	del := func(k string) {
		t.Helper()
		if _, err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(cur, k)
	}

	// The empty store after initialization is the first durable state.
	states = append(states, crashState{rows: map[string]string{}, acked: b.JournalBytes()})

	// Commit 1: a handful of rows.
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	record()
	// Commit 2: overwrites, deletes, and an overflow record.
	for i := 0; i < 12; i += 2 {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("V%02d!", i))
	}
	del("k03")
	del("k09")
	put("big", string(bytes.Repeat([]byte("x"), 3*MinPageSize)))
	record()
	// Commit 3: churn the overflow record and add more rows.
	put("big", string(bytes.Repeat([]byte("y"), 2*MinPageSize)))
	for i := 12; i < 20; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	record()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	total := b.JournalBytes()
	if total == 0 || len(states) < 4 {
		t.Fatalf("workload journaled %d bytes across %d states", total, len(states))
	}
	for cut := int64(0); cut <= total; cut++ {
		img := b.Snapshot(cut)
		acked := -1
		for i := range states {
			if states[i].acked <= cut {
				acked = i
			}
		}
		re, err := OpenBacking(img, opt)
		if err != nil {
			if acked >= 0 {
				t.Fatalf("cut %d: reopen failed after commit %d was acknowledged: %v", cut, acked, err)
			}
			continue // nothing acknowledged yet: an unopenable torn file is allowed
		}
		got := map[string]string{}
		if err := re.Scan(func(k, v []byte) error {
			got[string(k)] = string(v)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: scan of reopened store served damage: %v", cut, err)
		}
		if int(re.Len()) != len(got) {
			t.Fatalf("cut %d: Len = %d but scan saw %d rows", cut, re.Len(), len(got))
		}
		match := -1
		lo := acked
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < len(states); j++ {
			if sameRowMaps(states[j].rows, got) {
				match = j
				break
			}
		}
		if match < 0 {
			t.Fatalf("cut %d: visible contents (%d rows) match no committed state at or after acknowledged commit %d", cut, len(got), acked)
		}
		// Point reads agree with the scan: the index serves the same state.
		for k, want := range states[match].rows {
			v, ok, err := re.Get(nil, []byte(k))
			if err != nil || !ok || string(v) != want {
				t.Fatalf("cut %d: get %q = %q, %v, %v; want %q", cut, k, v, ok, err, want)
			}
		}
		re.pg.b.Close()
	}
}
