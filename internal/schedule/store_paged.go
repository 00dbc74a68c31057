package schedule

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/store"
)

// The paged row store is the on-disk row store: key→row entries held out
// of core in a paged block file with a B-tree index (internal/store), never
// loaded into memory on open. Each record's value is
//
//	uvarint recency stamp, AppendRow(row)
//
// so a bounded store can reconstruct least-recently-used order across
// reopens while keeping only an O(MaxEntries) index of keys — never the
// rows — resident. Eviction deletes the record in place (the engine's free
// list recycles its pages); nothing ever rewrites the whole file.

// PagedStore is a Store persisted in a paged block file, optionally bounded
// (StoreOptions). It does not hold rows in memory: Get reads through the
// engine's bounded page cache, so the resident footprint stays constant as
// the file grows. Construct with OpenPagedStoreWith.
type PagedStore struct {
	mu     sync.Mutex
	db     *store.DB
	dec    rowDecoder
	closed bool

	// Reused encode/decode buffers, guarded by mu, so a steady-state Get
	// allocates nothing: keyBuf holds the key bytes (a cache key is too
	// long for the compiler's on-stack []byte(string) conversion), valBuf
	// receives the record value and scratch encodes values to write.
	keyBuf  []byte
	valBuf  []byte
	scratch []byte

	// Bounded mode only: recency index of keys (front = most recently
	// used). Rows live on disk; this costs O(MaxEntries) keys, not rows.
	max     int
	order   *list.List
	byKey   map[string]*list.Element
	evicted int64

	// nextSeq is the recency clock: every Put (and every bounded Get hit)
	// stamps its record with the next value. Mirrored into the engine's
	// user-meta slot so the clock survives reopens without a scan.
	nextSeq uint64
}

type pagedEntry struct {
	key string
	seq uint64
}

// OpenPagedStore opens (creating if absent) the unbounded paged store at
// path; see OpenPagedStoreWith.
func OpenPagedStore(path string) (*PagedStore, error) {
	return OpenPagedStoreWith(path, StoreOptions{})
}

// OpenPagedStoreWith opens (creating if absent) the paged store at path.
// Rows are not loaded: an unbounded open is O(1) in the entry count. A
// bounded open scans keys and stamps (not rows) to rebuild recency order,
// and trims an over-budget file down to the newest MaxEntries rows —
// load-time trimming is compaction, not eviction, so the counter starts at
// zero. A file that is not a paged store — such as a row cache written in
// a retired format — is an error rather than healable damage, so pointing
// -cache at the wrong file cannot erase it. Crash damage is the engine's
// concern: the store rolls back to the last durable commit on open, so
// torn writes cost recent entries, never the file.
func OpenPagedStoreWith(path string, opt StoreOptions) (*PagedStore, error) {
	db, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("schedule: open paged row store: %w", err)
	}
	return newPagedStore(db, opt)
}

// OpenPagedStoreBacking opens a paged store over an arbitrary engine
// backing — the hook the crash tests use to tear the write history at
// exact byte boundaries via store.MemBacking.
func OpenPagedStoreBacking(b store.Backing, opt StoreOptions) (*PagedStore, error) {
	db, err := store.OpenBacking(b, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("schedule: open paged row store: %w", err)
	}
	return newPagedStore(db, opt)
}

func newPagedStore(db *store.DB, opt StoreOptions) (*PagedStore, error) {
	s := &PagedStore{
		db:      db,
		dec:     rowDecoder{intern: map[string]string{}},
		max:     opt.MaxEntries,
		nextSeq: db.UserMeta(),
	}
	if s.max <= 0 {
		return s, nil
	}
	s.order = list.New()
	s.byKey = map[string]*list.Element{}
	entries := make([]pagedEntry, 0, db.Len())
	scanErr := db.Scan(func(k, v []byte) error {
		seq, n := binary.Uvarint(v)
		if n <= 0 {
			return fmt.Errorf("schedule: paged row store entry %q has no recency stamp", k)
		}
		entries = append(entries, pagedEntry{key: string(k), seq: seq})
		return nil
	})
	if scanErr != nil {
		db.Close()
		return nil, scanErr
	}
	// Oldest first; ties (possible after a crash rolled the clock back)
	// break by key so reloads are deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].seq != entries[j].seq {
			return entries[i].seq < entries[j].seq
		}
		return entries[i].key < entries[j].key
	})
	for _, e := range entries {
		if e.seq >= s.nextSeq {
			s.nextSeq = e.seq + 1
		}
	}
	// Trim an over-budget file to the newest rows, in place.
	for len(entries) > s.max {
		if _, err := db.Delete([]byte(entries[0].key)); err != nil {
			db.Close()
			return nil, fmt.Errorf("schedule: trim paged row store: %w", err)
		}
		entries = entries[1:]
	}
	for _, e := range entries {
		s.byKey[e.key] = s.order.PushFront(&pagedEntry{key: e.key, seq: e.seq})
	}
	db.SetUserMeta(s.nextSeq)
	return s, nil
}

// appendStamped encodes a record value: recency stamp, then the row.
func (s *PagedStore) appendStamped(dst []byte, seq uint64, row Row) []byte {
	dst = binary.AppendUvarint(dst, seq)
	return AppendRow(dst, row)
}

// Get implements Store. A bounded hit counts as use: the entry moves to the
// recency front and its on-disk stamp is rewritten in place, so the LRU
// order survives reopens without any close-time rewrite.
func (s *PagedStore) Get(key string) (Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Row{}, false
	}
	s.keyBuf = append(s.keyBuf[:0], key...)
	val, ok, err := s.db.Get(s.valBuf[:0], s.keyBuf)
	s.valBuf = val
	if err != nil || !ok {
		return Row{}, false
	}
	_, n := binary.Uvarint(val)
	if n <= 0 {
		return Row{}, false
	}
	row, rest, err := s.dec.decode(val[n:])
	if err != nil || len(rest) != 0 {
		return Row{}, false
	}
	if e, tracked := s.byKey[key]; tracked {
		ent := e.Value.(*pagedEntry)
		ent.seq = s.nextSeq
		s.nextSeq++
		s.order.MoveToFront(e)
		s.scratch = s.appendStamped(s.scratch[:0], ent.seq, row)
		if err := s.db.Put(s.keyBuf, s.scratch); err != nil {
			return Row{}, false
		}
		s.db.SetUserMeta(s.nextSeq)
	}
	return row, true
}

// Put implements Store: the entry is written straight to the paged file —
// no resident copy — and, when bounded, the least-recently-used entry
// beyond MaxEntries is deleted in place, its pages recycled through the
// engine's free list.
func (s *PagedStore) Put(key string, row Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("schedule: put on closed paged row store")
	}
	seq := s.nextSeq
	s.nextSeq++
	s.keyBuf = append(s.keyBuf[:0], key...)
	s.scratch = s.appendStamped(s.scratch[:0], seq, row)
	if err := s.db.Put(s.keyBuf, s.scratch); err != nil {
		return fmt.Errorf("schedule: append row store: %w", err)
	}
	s.db.SetUserMeta(s.nextSeq)
	if s.max <= 0 {
		return nil
	}
	if e, ok := s.byKey[key]; ok {
		ent := e.Value.(*pagedEntry)
		ent.seq = seq
		s.order.MoveToFront(e)
		return nil
	}
	s.byKey[key] = s.order.PushFront(&pagedEntry{key: key, seq: seq})
	for len(s.byKey) > s.max {
		oldest := s.order.Back()
		ent := oldest.Value.(*pagedEntry)
		s.order.Remove(oldest)
		delete(s.byKey, ent.key)
		if _, err := s.db.Delete([]byte(ent.key)); err != nil {
			return fmt.Errorf("schedule: evict from row store: %w", err)
		}
		s.evicted++
	}
	return nil
}

// Len returns the number of stored rows (resident on disk, not in memory).
func (s *PagedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.db.Len())
}

// Evictions returns the number of rows evicted by the MaxEntries bound
// since the store was opened.
func (s *PagedStore) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Close commits outstanding writes and releases the file. No compaction
// pass is needed: deletes already reclaimed their pages in place and
// recency stamps are already durable. Closing twice is a no-op.
func (s *PagedStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.db.Close()
}

// StoreStats exposes the underlying engine's counters for observability
// and tests.
func (s *PagedStore) StoreStats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Stats()
}
