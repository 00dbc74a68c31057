package store

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// The committer tests drive background commits with no sleeps and no
// wall-clock waits: a gatedBacking parks every Sync until the test answers
// it, so each test decides exactly when a commit may land.

var errInjected = errors.New("injected backing failure")

// gatedBacking is a MemBacking whose Sync blocks until the test answers:
// each call sends a reply channel on syncs and returns what the test sends
// back (nil lets the sync through). failWrites makes every WriteAt fail.
type gatedBacking struct {
	*MemBacking
	syncs      chan chan error
	failWrites atomic.Bool
}

func (g *gatedBacking) Sync() error {
	reply := make(chan error)
	g.syncs <- reply
	if err := <-reply; err != nil {
		return err
	}
	return g.MemBacking.Sync()
}

func (g *gatedBacking) WriteAt(p []byte, off int64) (int, error) {
	if g.failWrites.Load() {
		return 0, errInjected
	}
	return g.MemBacking.WriteAt(p, off)
}

// release waits for the next Sync and answers it with err.
func (g *gatedBacking) release(err error) { (<-g.syncs) <- err }

// releaseCommit lets both fsyncs of one commit through.
func (g *gatedBacking) releaseCommit() {
	g.release(nil)
	g.release(nil)
}

// committerOptions keeps AutoCommitPages well above what one write can
// dirty, so the tests' single writes after a seal never cross it again.
func committerOptions() Options {
	return Options{PageSize: MinPageSize, MaxCachedPages: 8, AutoCommitPages: 16}
}

// openGated initializes a store on a plain MemBacking (creation syncs once,
// inline) and reopens it behind the gate.
func openGated(t *testing.T) (*DB, *gatedBacking) {
	t.Helper()
	mem := NewMemBacking()
	db, err := OpenBacking(mem, committerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	g := &gatedBacking{MemBacking: mem, syncs: make(chan chan error)}
	if db, err = OpenBacking(g, committerOptions()); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// committerModel mirrors the store's contents for the committer tests.
type committerModel struct {
	db   *DB
	rows map[string]string
	next int
}

func newCommitterModel(db *DB) *committerModel {
	return &committerModel{db: db, rows: map[string]string{}}
}

func (m *committerModel) put(t *testing.T) {
	t.Helper()
	if err := m.tryPut(); err != nil {
		t.Fatal(err)
	}
}

// tryPut writes the next fresh key; it reports rather than fails, so a
// test may call it off the test goroutine.
func (m *committerModel) tryPut() error {
	k, v := fmt.Sprintf("key-%04d", m.next), fmt.Sprintf("value-%04d", m.next)
	m.next++
	if err := m.db.Put([]byte(k), []byte(v)); err != nil {
		return fmt.Errorf("put %q: %w", k, err)
	}
	m.rows[k] = v
	return nil
}

func (m *committerModel) del(t *testing.T, k string) {
	t.Helper()
	if ok, err := m.db.Delete([]byte(k)); err != nil || !ok {
		t.Fatalf("delete %q = %v, %v", k, ok, err)
	}
	delete(m.rows, k)
}

// putUntilSealed writes fresh keys until a write seals the open
// transaction, returning with that commit in flight.
func (m *committerModel) putUntilSealed(t *testing.T) *commitJob {
	t.Helper()
	j, err := m.tryPutUntilSealed()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func (m *committerModel) tryPutUntilSealed() (*commitJob, error) {
	before := m.db.pg.inflight
	for i := 0; i < 1000; i++ {
		if err := m.tryPut(); err != nil {
			return nil, err
		}
		if j := m.db.pg.inflight; j != nil && j != before {
			return j, nil
		}
	}
	return nil, errors.New("1000 writes never reached AutoCommitPages")
}

// check requires Get, Scan and Len to agree with the model.
func (m *committerModel) check(t *testing.T, db *DB) {
	t.Helper()
	if int(db.Len()) != len(m.rows) {
		t.Fatalf("Len = %d, model has %d", db.Len(), len(m.rows))
	}
	for k, want := range m.rows {
		v, ok, err := db.Get(nil, []byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("get %q = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	seen := map[string]string{}
	if err := db.Scan(func(k, v []byte) error {
		seen[string(k)] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sameRowMaps(seen, m.rows) {
		t.Fatalf("scan saw %d rows, model has %d", len(seen), len(m.rows))
	}
}

// checkDurable reopens the bytes written so far, as a crash right now
// would leave them, and requires the model.
func (m *committerModel) checkDurable(t *testing.T, mem *MemBacking) {
	t.Helper()
	re, err := OpenBacking(mem.Snapshot(mem.JournalBytes()), committerOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.check(t, re)
}

// The write that crosses AutoCommitPages returns with its commit sealed but
// not durable: the committer, not the writer, waits on the fsync.
func TestCommitterPutReturnsWhileSyncHeld(t *testing.T) {
	db, g := openGated(t)
	m := newCommitterModel(db)
	m.putUntilSealed(t)
	reply := <-g.syncs // the committer sits in the first fsync; Put is back
	if s := db.Stats(); s.Commits != 0 || s.DirtyPages != 0 {
		t.Fatalf("with the fsync held: %d commits, %d dirty pages; want 0 and 0", s.Commits, s.DirtyPages)
	}
	reply <- nil
	g.release(nil)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if c := db.Stats().Commits; c != 1 {
		t.Fatalf("Commits = %d after the commit landed, want 1", c)
	}
	m.checkDurable(t, g.MemBacking)
}

// While a commit is in flight, Get, Scan and Len see every write: the
// sealed commit's and the open transaction's, including overwrites and
// deletes of sealed records.
func TestCommitterReadsSeeEveryWrite(t *testing.T) {
	db, g := openGated(t)
	m := newCommitterModel(db)
	m.putUntilSealed(t)
	reply := <-g.syncs
	m.check(t, db)
	// Change sealed records from the open transaction, staying below the
	// threshold so nothing else seals.
	if err := db.Put([]byte("key-0000"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	m.rows["key-0000"] = "rewritten"
	m.del(t, "key-0001")
	m.put(t)
	if db.pg.inflight == nil || len(db.pg.dirty) >= committerOptions().AutoCommitPages {
		t.Fatal("the open transaction sealed again; the test needs it open")
	}
	m.check(t, db)
	reply <- nil
	g.release(nil)
	m.check(t, db)
	done := make(chan error)
	go func() { done <- db.Sync() }()
	g.releaseCommit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.check(t, db)
	m.checkDurable(t, g.MemBacking)
}

// A write that crosses AutoCommitPages again while the previous commit is
// in flight waits for it, and the wait is counted.
func TestCommitterSecondCrossingStalls(t *testing.T) {
	db, g := openGated(t)
	m := newCommitterModel(db)
	first := m.putUntilSealed(t)
	stalling := make(chan struct{})
	testHookStall = func() { close(stalling) }
	t.Cleanup(func() { testHookStall = nil })

	done := make(chan *commitJob)
	go func() {
		j, err := m.tryPutUntilSealed()
		if err != nil {
			t.Error(err)
		}
		done <- j
	}()
	<-stalling
	select {
	case <-done:
		t.Fatal("the stalled write returned with the first commit's fsync held")
	default:
	}
	g.releaseCommit() // the first commit lands; the stalled write seals the second
	second := <-done
	if second == nil || second == first {
		t.Fatal("the stalled write did not seal a commit of its own")
	}
	if s := db.Stats(); s.CommitStalls != 1 || s.Commits != 1 {
		t.Fatalf("after the stall: %d stalls, %d commits; want 1 and 1", s.CommitStalls, s.Commits)
	}
	g.releaseCommit()
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.CommitStalls != 1 || s.Commits != 2 {
		t.Fatalf("after Sync: %d stalls, %d commits; want 1 and 2", s.CommitStalls, s.Commits)
	}
	m.checkDurable(t, g.MemBacking)
}

// Sync and Close wait for the in-flight commit and then commit what is
// open: when they return, every completed write is durable.
func TestCommitterSyncAndCloseWait(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*DB) error
	}{
		{"Sync", (*DB).Sync},
		{"Close", (*DB).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, g := openGated(t)
			m := newCommitterModel(db)
			m.putUntilSealed(t)
			m.put(t) // one write left open behind the in-flight commit
			done := make(chan error)
			go func() { done <- tc.call(db) }()
			reply := <-g.syncs
			select {
			case err := <-done:
				t.Fatalf("%s returned %v with the in-flight commit's fsync held", tc.name, err)
			default:
			}
			reply <- nil
			g.release(nil)
			g.releaseCommit() // the commit of the open write
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := len(g.SyncPoints()); n != 5 {
				t.Fatalf("%s returned after %d fsyncs, want 5 (creation plus two commits)", tc.name, n)
			}
			m.checkDurable(t, g.MemBacking)
		})
	}
}

// A background commit that fails — in a page write or in an fsync — fails
// the store permanently: every later call returns the error.
func TestCommitterFailureFailsEveryLaterCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(*gatedBacking)
	}{
		{"WriteAt", func(g *gatedBacking) {}},
		{"Sync", func(g *gatedBacking) { g.release(errInjected) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, g := openGated(t)
			m := newCommitterModel(db)
			g.failWrites.Store(tc.name == "WriteAt")
			m.putUntilSealed(t) // the crossing write itself succeeds
			tc.fail(g)
			if err := db.Sync(); !errors.Is(err, errInjected) {
				t.Fatalf("Sync after the failed commit = %v, want the injected error", err)
			}
			calls := map[string]func() error{
				"Put":    func() error { return db.Put([]byte("k"), []byte("v")) },
				"Get":    func() error { _, _, err := db.Get(nil, []byte("key-0000")); return err },
				"Delete": func() error { _, err := db.Delete([]byte("key-0000")); return err },
				"Scan":   func() error { return db.Scan(func(k, v []byte) error { return nil }) },
				"Sync":   db.Sync,
				"Close":  db.Close,
			}
			for _, name := range []string{"Put", "Get", "Delete", "Scan", "Sync", "Close"} {
				if err := calls[name](); !errors.Is(err, errInjected) {
					t.Fatalf("%s after the failed commit = %v, want the injected error", name, err)
				}
			}
		})
	}
}
