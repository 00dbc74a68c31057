package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
)

// Options configures a DB. The zero value selects the defaults.
type Options struct {
	// PageSize is the data page size in bytes, fixed at creation and read
	// back from the file afterwards. 0 selects DefaultPageSize.
	PageSize int
	// MaxCachedPages bounds the clean-page cache — the resident footprint
	// of the index and of recently read records. 0 selects 512 pages
	// (2 MiB at the default page size).
	MaxCachedPages int
	// AutoCommitPages bounds the open transaction: at this many dirty
	// pages the write that reaches it seals the transaction and hands it
	// to the background committer, so an unbounded ingest keeps a bounded
	// memory footprint and a bounded crash-rollback window. Such an
	// automatic commit is durable once it lands, not when the write
	// returns. A write that reaches the bound again while the previous
	// commit is still in flight waits for it (a stall, counted in Stats),
	// so at most twice this many pages await the disk. 0 selects 512
	// pages.
	AutoCommitPages int
}

func (o Options) withDefaults() Options {
	if o.MaxCachedPages == 0 {
		o.MaxCachedPages = 512
	}
	if o.AutoCommitPages == 0 {
		o.AutoCommitPages = 512
	}
	return o
}

// Stats is a point-in-time snapshot of the engine's counters, for tests
// and operability.
type Stats struct {
	// PagesRead counts checksum-verified page fetches from the backing.
	PagesRead int64
	// PagesWritten counts pages written out by commits.
	PagesWritten int64
	// Commits counts durable commit records written. A background commit
	// counts once a DB call publishes it: the first Put, Get, Delete,
	// Scan, Sync or Close after it lands.
	Commits int64
	// CommitStalls counts writes that reached AutoCommitPages while the
	// previous commit was still in flight and waited for it.
	CommitStalls int64
	// CachedPages is the current clean-page cache population.
	CachedPages int
	// DirtyPages is the open transaction's page count.
	DirtyPages int
	// FilePages is the committed file extent in pages.
	FilePages int
	// FreePages is the number of pages currently awaiting reuse.
	FreePages int
	// Entries is the record count.
	Entries int64
}

// DB is a paged key→value store. It is not safe for concurrent use;
// callers serialize (the schedule adapter holds a mutex). Commits run on a
// background committer, at most one at a time (see Options.AutoCommitPages
// and Sync).
type DB struct {
	pg        *pager
	opt       Options
	active    uint32 // open shared data page being appended to (0 = none)
	activeOff int
	scratch   []byte
	closed    bool
}

// Open opens (creating if absent) the paged store at path.
func Open(path string, opt Options) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	db, err := OpenBacking(fileBacking{f: f}, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// OpenBacking opens a paged store over an arbitrary Backing.
func OpenBacking(b Backing, opt Options) (*DB, error) {
	opt = opt.withDefaults()
	pg, err := openPager(b, opt)
	if err != nil {
		return nil, err
	}
	return &DB{pg: pg, opt: opt}, nil
}

// usable publishes a commit that landed since the last call and reports
// whether the store may be used.
func (db *DB) usable() error {
	if db.closed {
		return fmt.Errorf("store: use of closed store")
	}
	db.pg.poll()
	return db.pg.err
}

func hashKey(key []byte) key32 { return sha256.Sum256(key) }

// appendRecord encodes a record (length-prefixed key, length-prefixed
// value) into dst.
func appendRecord(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// decodeRecord splits a record back into key and value (views into rec).
func decodeRecord(rec []byte) (key, val []byte, err error) {
	fail := func() ([]byte, []byte, error) { return nil, nil, fmt.Errorf("store: malformed record") }
	kl, n := binary.Uvarint(rec)
	if n <= 0 || kl > uint64(len(rec)-n) {
		return fail()
	}
	key, rec = rec[n:n+int(kl)], rec[n+int(kl):]
	vl, n := binary.Uvarint(rec)
	if n <= 0 || vl != uint64(len(rec)-n) {
		return fail()
	}
	return key, rec[n:], nil
}

// Put maps key to val, replacing any previous value. The write is durable
// once Sync or Close returns, or once the automatic commit that carries it
// lands — not when Put returns.
func (db *DB) Put(key, val []byte) error {
	if err := db.usable(); err != nil {
		return err
	}
	db.scratch = appendRecord(db.scratch[:0], key, val)
	var (
		l   loc
		err error
	)
	if len(db.scratch) <= db.pg.payloadCap() {
		l, err = db.placeInline(db.scratch)
	} else {
		l, err = db.placeOverflow(db.scratch)
	}
	if err != nil {
		return err
	}
	old, replaced, err := db.pg.btreePut(hashKey(key), l)
	if err != nil {
		return err
	}
	if replaced {
		db.freeRecord(old)
	} else {
		db.pg.cur.entryCount++
	}
	return db.autoCommit()
}

// placeInline appends the record to the open shared data page, sealing it
// and starting a fresh one when the record does not fit the remainder.
func (db *DB) placeInline(rec []byte) (loc, error) {
	if db.active == 0 || db.activeOff+len(rec) > db.pg.payloadCap() {
		p := db.pg.alloc(pageData)
		db.active, db.activeOff = p.no, 0
	}
	p, err := db.pg.read(db.active, pageData)
	if err != nil {
		return loc{}, err
	}
	off := db.activeOff
	copy(p.payload()[off:], rec)
	db.activeOff += len(rec)
	p.setCount(db.activeOff)
	db.pg.setLive(db.active, db.pg.liveAt(db.active)+1)
	return loc{page: db.active, off: uint16(off), length: uint32(len(rec))}, nil
}

// placeOverflow writes a record too large for a data page into its own
// page chain.
func (db *DB) placeOverflow(rec []byte) (loc, error) {
	capacity := db.pg.payloadCap()
	var head uint32
	var prev *page
	total := len(rec)
	for len(rec) > 0 {
		n := len(rec)
		if n > capacity {
			n = capacity
		}
		p := db.pg.alloc(pageOverflow)
		copy(p.payload(), rec[:n])
		p.setCount(n)
		rec = rec[n:]
		if prev == nil {
			head = p.no
		} else {
			prev.setNext(p.no)
		}
		prev = p
	}
	return loc{page: head, off: overflowOff, length: uint32(total)}, nil
}

// readRecord fetches a record's bytes by location. The returned slice
// aliases cache pages for inline records; callers copy what they keep.
func (db *DB) readRecord(l loc) ([]byte, error) {
	if l.off != overflowOff {
		p, err := db.pg.read(l.page, pageData)
		if err != nil {
			return nil, err
		}
		end := int(l.off) + int(l.length)
		if end > len(p.payload()) {
			return nil, errCorrupt(l.page, "record overruns the page")
		}
		return p.payload()[l.off:end], nil
	}
	out := make([]byte, 0, l.length)
	no := l.page
	for no != 0 && len(out) < int(l.length) {
		p, err := db.pg.read(no, pageOverflow)
		if err != nil {
			return nil, err
		}
		n := p.count()
		if n > len(p.payload()) {
			return nil, errCorrupt(no, "overflow chunk overruns the page")
		}
		out = append(out, p.payload()[:n]...)
		no = p.next()
	}
	if len(out) != int(l.length) {
		return nil, errCorrupt(l.page, "overflow chain shorter than the record")
	}
	return out, nil
}

// freeRecord retires a record's storage: an overflow chain is freed page
// by page; an inline record decrements its page's live count, and the page
// itself is freed when the last record on it dies — deletion reclaims
// space in place, no rewrite of anything else.
func (db *DB) freeRecord(l loc) {
	if l.off == overflowOff {
		for no := l.page; no != 0; {
			p, err := db.pg.read(no, pageOverflow)
			if err != nil {
				return // best effort: damage costs leaked pages, never data
			}
			next := p.next()
			db.pg.free(no)
			no = next
		}
		return
	}
	if n := db.pg.liveAt(l.page); n > 1 {
		db.pg.setLive(l.page, n-1)
		return
	}
	db.pg.setLive(l.page, 0)
	if l.page == db.active {
		db.active, db.activeOff = 0, 0
	}
	db.pg.free(l.page)
}

// Get appends the value stored under key to dst and returns the extended
// slice, so a caller that reuses dst reads without allocating. A page that
// cannot be read or verified surfaces as an error, never as another
// record's bytes.
func (db *DB) Get(dst, key []byte) ([]byte, bool, error) {
	if err := db.usable(); err != nil {
		return dst, false, err
	}
	l, found, err := db.pg.btreeGet(hashKey(key))
	if err != nil || !found {
		return dst, false, err
	}
	rec, err := db.readRecord(l)
	if err != nil {
		return dst, false, err
	}
	k, v, err := decodeRecord(rec)
	if err != nil {
		return dst, false, err
	}
	if !bytes.Equal(k, key) {
		return dst, false, nil // hash collision: not this key
	}
	return append(dst, v...), true, nil
}

// Delete removes key, reporting whether it was present.
func (db *DB) Delete(key []byte) (bool, error) {
	if err := db.usable(); err != nil {
		return false, err
	}
	old, found, err := db.pg.btreeDelete(hashKey(key))
	if err != nil || !found {
		return false, err
	}
	db.freeRecord(old)
	db.pg.cur.entryCount--
	return true, db.autoCommit()
}

// Scan visits every record in index (hash) order. The key and value slices
// are only valid during the callback.
func (db *DB) Scan(fn func(key, val []byte) error) error {
	if err := db.usable(); err != nil {
		return err
	}
	return db.pg.btreeWalk(func(h key32, l loc) error {
		rec, err := db.readRecord(l)
		if err != nil {
			return err
		}
		k, v, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		return fn(k, v)
	})
}

// Len returns the record count (including uncommitted writes).
func (db *DB) Len() int64 { return int64(db.pg.cur.entryCount) }

// UserMeta returns the caller-owned 64-bit slot carried by every commit
// record (the schedule adapter keeps its recency clock there).
func (db *DB) UserMeta() uint64 { return db.pg.cur.userMeta }

// SetUserMeta updates the caller-owned slot; durable at the next commit.
func (db *DB) SetUserMeta(v uint64) { db.pg.cur.userMeta = v }

// testHookStall, when set, runs as a write starts to wait for the
// in-flight commit.
var testHookStall func()

// autoCommit hands the open transaction to the committer once it reaches
// AutoCommitPages. A commit still in flight is waited for first — the
// stall that bounds the backlog.
func (db *DB) autoCommit() error {
	if len(db.pg.dirty) < db.opt.AutoCommitPages {
		return nil
	}
	if !db.pg.landed() {
		db.pg.stats.CommitStalls++
		if testHookStall != nil {
			testHookStall()
		}
	}
	if err := db.pg.wait(); err != nil {
		return err
	}
	db.seal()
	return nil
}

// seal closes the open data page and hands the transaction to the
// committer.
func (db *DB) seal() {
	db.active, db.activeOff = 0, 0
	db.pg.seal()
}

// Sync waits for the in-flight commit, then commits the open transaction
// and waits for that too; after it returns, every completed Put and Delete
// is durable.
func (db *DB) Sync() error {
	if err := db.usable(); err != nil {
		return err
	}
	return db.sync()
}

func (db *DB) sync() error {
	if err := db.pg.wait(); err != nil {
		return err
	}
	if !db.pg.mutated() {
		return nil
	}
	db.seal()
	return db.pg.wait()
}

// Close commits like Sync and releases the backing. Closing twice is an
// error-free no-op only for the backing state; use Sync for mid-life
// durability.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.sync()
	if cerr := db.pg.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the engine counters. It does not publish a commit that
// landed since the last call, so a scrape never changes the store.
func (db *DB) Stats() Stats {
	s := db.pg.stats
	s.CachedPages = len(db.pg.clean)
	s.DirtyPages = len(db.pg.dirty)
	s.FilePages = int(db.pg.cur.pageCount)
	s.FreePages = len(db.pg.reusable) + len(db.pg.pending)
	s.Entries = int64(db.pg.cur.entryCount)
	return s
}

// PageSize returns the store's page size in bytes.
func (db *DB) PageSize() int { return db.pg.pageSize }
