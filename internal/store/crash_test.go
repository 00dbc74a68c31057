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

// TestCrashRecoveryEveryByteAutoCommit is TestCrashRecoveryEveryByte with
// commits sealed by the writes themselves and landed by the background
// committer. Commit k is durable once its commit record is fully written,
// which is where its second fsync starts. Every byte prefix must reopen as
// exactly the newest commit durable within it, or — while the next commit
// record is being written and its written bytes already verify — as that
// next commit: never an older one, a later one, or a blend.
func TestCrashRecoveryEveryByteAutoCommit(t *testing.T) {
	b := NewMemBacking()
	opt := Options{PageSize: MinPageSize, MaxCachedPages: 8, AutoCommitPages: 6}
	db, err := OpenBacking(b, opt)
	if err != nil {
		t.Fatal(err)
	}

	// states[k] is the contents commit k carries; commit 0 is creation.
	cur := map[string]string{}
	states := []map[string]string{{}}
	var sealed *commitJob
	observe := func() {
		if j := db.pg.inflight; j != nil && j != sealed {
			sealed = j
			states = append(states, cloneRows(cur))
		}
	}
	put := func(k, v string) {
		t.Helper()
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		cur[k] = v
		observe()
	}
	del := func(k string) {
		t.Helper()
		if _, err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(cur, k)
		observe()
	}

	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	for i := 0; i < 16; i += 3 {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("V%02d!", i))
	}
	del("k04")
	del("k07")
	put("big", string(bytes.Repeat([]byte("x"), 3*MinPageSize)))
	for i := 16; i < 24; i++ {
		put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	put("big", string(bytes.Repeat([]byte("y"), 2*MinPageSize)))
	del("k10")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	syncs := b.SyncPoints()
	commits := (len(syncs) - 1) / 2
	if commits == len(states) { // Close committed what was still open
		states = append(states, cloneRows(cur))
	}
	if len(syncs) != 2*len(states)-1 || len(states) < 5 {
		t.Fatalf("%d fsyncs for %d sealed commits; want 2 per commit plus creation, and at least 4 commits", len(syncs), len(states)-1)
	}
	durable := func(k int) int64 { // journal bytes at which commit k is durable
		if k == 0 {
			return syncs[0]
		}
		return syncs[2*k]
	}
	total := b.JournalBytes()
	for cut := int64(0); cut <= total; cut++ {
		want := -1
		for k := range states {
			if durable(k) <= cut {
				want = k
			}
		}
		re, err := OpenBacking(b.Snapshot(cut), opt)
		if err != nil {
			if want >= 0 {
				t.Fatalf("cut %d: reopen failed after commit %d was durable: %v", cut, want, err)
			}
			continue
		}
		if want < 0 {
			want = 0 // a creation record written whole but not yet synced
		}
		got := map[string]string{}
		if err := re.Scan(func(k, v []byte) error {
			got[string(k)] = string(v)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: scan of reopened store served damage: %v", cut, err)
		}
		match := sameRowMaps(states[want], got)
		if !match && want+1 < len(states) && cut > durable(want+1)-MinPageSize {
			want++ // inside the next commit record's write
			match = sameRowMaps(states[want], got)
		}
		if !match || int(re.Len()) != len(got) {
			t.Fatalf("cut %d: reopened %d rows (Len %d); want exactly commit %d's %d rows", cut, len(got), re.Len(), want, len(states[want]))
		}
		for k, v := range states[want] {
			if g, ok, err := re.Get(nil, []byte(k)); err != nil || !ok || string(g) != v {
				t.Fatalf("cut %d: get %q = %q, %v, %v; want %q", cut, k, g, ok, err, v)
			}
		}
	}
}
