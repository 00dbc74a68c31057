package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
)

// meta is the commit record: the complete durable root state of the file.
// Two alternating page slots (pages zero and one) hold the two most recent
// commits; the valid slot with the higher sequence wins on open, so a crash
// anywhere — including mid-way through writing a meta slot — rolls the file
// back to the previous commit.
type meta struct {
	seq        uint64
	root       uint32 // B-tree root page (0 = empty tree)
	pageCount  uint32 // committed file extent, in pages
	freeHead   uint32 // free-list chain head (0 = none)
	spaceHead  uint32 // space-map chain head (0 = none)
	entryCount uint64
	userMeta   uint64
}

// metaMagic opens every meta payload; the first byte matches the repo-wide
// binary convention (non-ASCII, so the file can never be mistaken for text).
var metaMagic = [4]byte{0xAB, 'P', 'G', 1}

// metaPayloadLen is the encoded meta size inside the page payload.
const metaPayloadLen = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 8

func encodeMeta(p *page, pageSize int, m meta) {
	pl := p.payload()
	copy(pl, metaMagic[:])
	binary.LittleEndian.PutUint32(pl[4:], uint32(pageSize))
	binary.LittleEndian.PutUint64(pl[8:], m.seq)
	binary.LittleEndian.PutUint32(pl[16:], m.root)
	binary.LittleEndian.PutUint32(pl[20:], m.pageCount)
	binary.LittleEndian.PutUint32(pl[24:], m.freeHead)
	binary.LittleEndian.PutUint32(pl[28:], m.spaceHead)
	binary.LittleEndian.PutUint64(pl[32:], m.entryCount)
	binary.LittleEndian.PutUint64(pl[40:], m.userMeta)
}

func decodeMeta(p *page) (meta, int, error) {
	if p.typ() != pageMeta {
		return meta{}, 0, fmt.Errorf("store: page %d is not a meta page", p.no)
	}
	pl := p.payload()
	if len(pl) < metaPayloadLen || [4]byte(pl[:4]) != metaMagic {
		return meta{}, 0, fmt.Errorf("store: meta slot %d has no magic", p.no)
	}
	pageSize := int(binary.LittleEndian.Uint32(pl[4:]))
	m := meta{
		seq:        binary.LittleEndian.Uint64(pl[8:]),
		root:       binary.LittleEndian.Uint32(pl[16:]),
		pageCount:  binary.LittleEndian.Uint32(pl[20:]),
		freeHead:   binary.LittleEndian.Uint32(pl[24:]),
		spaceHead:  binary.LittleEndian.Uint32(pl[28:]),
		entryCount: binary.LittleEndian.Uint64(pl[32:]),
		userMeta:   binary.LittleEndian.Uint64(pl[40:]),
	}
	return m, pageSize, nil
}

// pager owns the page-level machinery: the backing, the bounded clean-page
// cache, the dirty set of the open transaction, allocation (free-list reuse
// plus file extension), the copy-on-write discipline and the dual-meta
// commit protocol. It is not safe for concurrent use; DB serializes. The
// one exception is the committer (runCommit): it runs a sealed commit on
// its own goroutine and touches only that commit and the backing.
type pager struct {
	b        Backing
	pageSize int
	maxClean int

	clean map[uint32]*list.Element // committed pages cached in memory
	order *list.List               // front = most recently used clean page

	dirty map[uint32]*page // pages written by the open transaction
	txNew map[uint32]bool  // page numbers allocated by the open transaction

	// inflight is the sealed commit the committer is writing (nil when
	// none). Its pages stay readable, and count as committed, until it is
	// published.
	inflight *commitJob

	committed meta // state of the last published durable commit
	cur       meta // working state (root, pageCount, entryCount, userMeta)

	reusable []uint32 // free pages that may be allocated this transaction
	pending  []uint32 // pages freed this transaction (reusable once sealed)

	// live counts the surviving records on each shared data page, indexed
	// by page number; a page drops to the free list when its count reaches
	// zero. liveCount is the number of non-zero entries. Persisted as the
	// space-map chain at each commit.
	live      []uint16
	liveCount int

	freeChain  []uint32 // pages of the committed free-list chain
	spaceChain []uint32 // pages of the committed space-map chain

	stats Stats
	err   error // sticky: a failed commit poisons the pager
}

// payloadCap is the usable bytes per page.
func (pg *pager) payloadCap() int { return pg.pageSize - pageHeaderSize }

func newPage(no uint32, pageSize int) *page {
	return &page{no: no, buf: make([]byte, pageSize)}
}

// openPager reads (or initializes) the backing and loads the free list and
// space map of the winning commit.
func openPager(b Backing, opt Options) (*pager, error) {
	pg := &pager{
		b:        b,
		pageSize: opt.PageSize,
		maxClean: opt.MaxCachedPages,
		clean:    map[uint32]*list.Element{},
		order:    list.New(),
		dirty:    map[uint32]*page{},
		txNew:    map[uint32]bool{},
	}
	size, err := b.Size()
	if err != nil {
		return nil, fmt.Errorf("store: size backing: %w", err)
	}
	if size == 0 {
		return pg, pg.init()
	}
	if size < int64(MinPageSize) {
		return nil, fmt.Errorf("store: %d-byte file is not a paged store", size)
	}
	best := -1
	var bestMeta meta
	for slot := 0; slot < 2; slot++ {
		m, ps, err := readMetaSlot(b, slot)
		if err != nil {
			continue
		}
		if best == -1 || m.seq > bestMeta.seq {
			best, bestMeta, pg.pageSize = slot, m, ps
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("store: no valid commit record (not a paged store, or both meta slots damaged)")
	}
	pg.committed, pg.cur = bestMeta, bestMeta
	pg.loadChains()
	return pg, nil
}

// Meta slots are MinPageSize-sized page images at the fixed offsets 0 and
// MinPageSize, whatever the data page size — so a torn slot can never hide
// the other one. Data pages zero and one stay reserved to cover the slots'
// extent.
func metaSlotOffset(slot int) int64 { return int64(slot) * MinPageSize }

// readMetaSlot decodes and verifies one fixed-offset meta slot.
func readMetaSlot(b Backing, slot int) (meta, int, error) {
	p := newPage(uint32(slot), MinPageSize)
	if _, err := b.ReadAt(p.buf, metaSlotOffset(slot)); err != nil {
		return meta{}, 0, err
	}
	if err := p.verify(); err != nil {
		return meta{}, 0, err
	}
	m, ps, err := decodeMeta(p)
	if err != nil {
		return meta{}, 0, err
	}
	if ps < MinPageSize || ps > MaxPageSize {
		return meta{}, 0, fmt.Errorf("store: implausible page size %d", ps)
	}
	return m, ps, nil
}

// writeMetaSlot seals and writes a commit record into its slot.
func (pg *pager) writeMetaSlot(m meta) error {
	slot := int(m.seq % 2)
	p := newPage(uint32(slot), MinPageSize)
	p.setTyp(pageMeta)
	encodeMeta(p, pg.pageSize, m)
	p.seal()
	_, err := pg.b.WriteAt(p.buf, metaSlotOffset(slot))
	return err
}

// init lays down a fresh empty store: one valid meta slot, two-page extent.
func (pg *pager) init() error {
	if pg.pageSize == 0 {
		pg.pageSize = DefaultPageSize
	}
	if pg.pageSize < MinPageSize || pg.pageSize > MaxPageSize {
		return fmt.Errorf("store: page size %d outside [%d, %d]", pg.pageSize, MinPageSize, MaxPageSize)
	}
	pg.cur = meta{pageCount: 2}
	if err := pg.writeMetaSlot(pg.cur); err != nil {
		return fmt.Errorf("store: initialize: %w", err)
	}
	if err := pg.b.Sync(); err != nil {
		return fmt.Errorf("store: initialize: %w", err)
	}
	pg.committed = pg.cur
	return nil
}

// loadChains reads the committed free list and space map. Damage here is
// degraded, not fatal: an unreadable chain costs reclaimed space (pages
// leak, deletes stop freeing), never serves wrong data.
func (pg *pager) loadChains() {
	if raw, pages, err := pg.readChain(pg.committed.freeHead, pageFree, 4); err == nil {
		pg.freeChain = pages
		for off := 0; off+4 <= len(raw); off += 4 {
			pg.reusable = append(pg.reusable, binary.LittleEndian.Uint32(raw[off:]))
		}
	}
	if raw, pages, err := pg.readChain(pg.committed.spaceHead, pageSpace, 6); err == nil {
		pg.spaceChain = pages
		for off := 0; off+6 <= len(raw); off += 6 {
			if no := binary.LittleEndian.Uint32(raw[off:]); no < pg.committed.pageCount {
				pg.setLive(no, binary.LittleEndian.Uint16(raw[off+4:]))
			}
		}
	}
}

// liveAt returns the surviving record count of data page no.
func (pg *pager) liveAt(no uint32) uint16 {
	if int(no) < len(pg.live) {
		return pg.live[no]
	}
	return 0
}

// setLive records the surviving record count of data page no, growing the
// dense array to cover it.
func (pg *pager) setLive(no uint32, n uint16) {
	if int(no) >= len(pg.live) {
		pg.live = append(pg.live, make([]uint16, int(no)+1-len(pg.live))...)
	}
	switch old := pg.live[no]; {
	case old == 0 && n != 0:
		pg.liveCount++
	case old != 0 && n == 0:
		pg.liveCount--
	}
	pg.live[no] = n
}

// read returns a page, preferring the open transaction's dirty copy, then
// the sealed in-flight commit's, then the clean cache, then the backing
// (checksum-verified). want, when non-zero, asserts the page type — a
// mismatch is corruption, not a value.
func (pg *pager) read(no uint32, want byte) (*page, error) {
	if p, ok := pg.dirty[no]; ok {
		return pg.checkTyp(p, want)
	}
	if j := pg.inflight; j != nil {
		if p, ok := j.pages[no]; ok {
			return pg.checkTyp(p, want)
		}
	}
	if e, ok := pg.clean[no]; ok {
		pg.order.MoveToFront(e)
		return pg.checkTyp(e.Value.(*page), want)
	}
	p := newPage(no, pg.pageSize)
	if _, err := pg.b.ReadAt(p.buf, int64(no)*int64(pg.pageSize)); err != nil {
		return nil, fmt.Errorf("store: read page %d: %w", no, err)
	}
	if err := p.verify(); err != nil {
		return nil, err
	}
	pg.stats.PagesRead++
	pg.cacheInsert(p)
	return pg.checkTyp(p, want)
}

func (pg *pager) checkTyp(p *page, want byte) (*page, error) {
	if want != 0 && p.typ() != want {
		return nil, fmt.Errorf("store: page %d has type %d, want %d", p.no, p.typ(), want)
	}
	return p, nil
}

// cacheInsert adds (or replaces) a clean page, evicting least-recently-used
// pages beyond the bound — the knob that keeps the resident index footprint
// constant as the file grows.
func (pg *pager) cacheInsert(p *page) {
	if e, ok := pg.clean[p.no]; ok {
		e.Value = p
		pg.order.MoveToFront(e)
		return
	}
	pg.clean[p.no] = pg.order.PushFront(p)
	for pg.maxClean > 0 && len(pg.clean) > pg.maxClean {
		oldest := pg.order.Back()
		delete(pg.clean, oldest.Value.(*page).no)
		pg.order.Remove(oldest)
	}
}

func (pg *pager) cacheDrop(no uint32) {
	if e, ok := pg.clean[no]; ok {
		delete(pg.clean, no)
		pg.order.Remove(e)
	}
}

// alloc returns a fresh writable page of the given type, reusing a free
// page when one is available and extending the file otherwise.
func (pg *pager) alloc(typ byte) *page {
	var no uint32
	if n := len(pg.reusable); n > 0 {
		no = pg.reusable[n-1]
		pg.reusable = pg.reusable[:n-1]
		pg.cacheDrop(no)
	} else {
		no = pg.cur.pageCount
		pg.cur.pageCount++
	}
	p := newPage(no, pg.pageSize)
	p.setTyp(typ)
	pg.dirty[no] = p
	pg.txNew[no] = true
	return p
}

// free retires a page. A page allocated by this very transaction was never
// committed, so it can be reused immediately; a committed or sealed page
// enters the pending set, because a crash before this transaction's commit
// record is durable rolls back to a state that still references it. The
// seal makes pending pages reusable: later transactions write them only
// after that commit has landed.
func (pg *pager) free(no uint32) {
	if pg.txNew[no] {
		delete(pg.txNew, no)
		delete(pg.dirty, no)
		pg.reusable = append(pg.reusable, no)
		return
	}
	pg.pending = append(pg.pending, no)
	pg.cacheDrop(no)
}

// shadow applies copy-on-write: it returns a writable copy of the page,
// relocated to a freshly allocated number when the original is committed
// or sealed.
// The caller must re-point every reference at the returned page's number.
func (pg *pager) shadow(no uint32, want byte) (*page, error) {
	if pg.txNew[no] {
		return pg.read(no, want)
	}
	orig, err := pg.read(no, want)
	if err != nil {
		return nil, err
	}
	p := pg.alloc(orig.typ())
	copy(p.buf, orig.buf)
	pg.free(no)
	return p, nil
}

// mutated reports whether the open transaction changed anything worth a
// commit record. Only meaningful with no commit in flight, when cur and
// committed share the sequence number and chain heads.
func (pg *pager) mutated() bool {
	return len(pg.dirty) > 0 || len(pg.pending) > 0 || pg.cur != pg.committed
}

// A commit runs in two halves. The seal, on the request path, freezes the
// open transaction into a commitJob without touching its pages — it hands
// over the dirty map and takes flat copies of the space map and the free
// set — and starts a fresh transaction. The committer, on its own goroutine, does everything else:
// serializing the chains, checksums, page writes, the first fsync, the
// commit record and the second fsync. At most one commit is in flight, so
// commits land in sequence order, and the committer never writes a page
// the last durable commit or the in-flight one references: sealed pages are
// read-only from then on, freeing one puts it in pending like any committed
// page, and the open transaction's pages reach the disk only in the next
// commit, after this one has landed. The landed commit is published
// lazily, by the next DB call that sees it done, so the pager itself stays
// single-threaded.

// commitJob is one sealed commit. The request path reads pages and done;
// the committer reads the rest and writes err and written, then closes
// done.
type commitJob struct {
	pages      map[uint32]*page // the sealed transaction's dirty set
	meta       meta             // the commit record to write
	live       []uint16         // space map as of the seal
	liveN      int              // non-zero entries in live
	free       []uint32         // free set as of the seal, unsorted
	spaceChain []uint32         // pre-allocated space-map chain pages
	freeChain  []uint32         // pre-allocated free-list chain pages

	done    chan struct{}
	err     error
	written int64
}

// seal freezes the open transaction and hands it to the committer. It must
// be called with no commit in flight and only when mutated() holds.
func (pg *pager) seal() {
	// Retire the previous commit's chains; their pages join the free set
	// being published by this commit.
	for _, no := range pg.freeChain {
		pg.free(no)
	}
	for _, no := range pg.spaceChain {
		pg.free(no)
	}
	pg.freeChain, pg.spaceChain = nil, nil

	// Size and allocate the chain pages before taking the published free
	// set, taking them out of the reusable set first so steady-state churn
	// cycles a constant set of pages instead of compounding the file
	// extent and the free list at every commit. The free-list page count
	// is an upper bound — allocation can only shrink the set it records.
	spaceN := pg.chainPages(6, pg.liveCount)
	freeN := pg.chainPages(4, len(pg.reusable)+len(pg.pending))
	chain := make([]uint32, spaceN+freeN)
	for i := range chain {
		chain[i] = pg.allocChain()
	}
	free := make([]uint32, 0, len(pg.reusable)+len(pg.pending))
	j := &commitJob{
		pages:      pg.dirty,
		live:       append([]uint16(nil), pg.live...),
		liveN:      pg.liveCount,
		free:       append(append(free, pg.reusable...), pg.pending...),
		spaceChain: chain[:spaceN],
		freeChain:  chain[spaceN:],
		done:       make(chan struct{}),
	}
	pg.cur.seq = pg.committed.seq + 1
	pg.cur.spaceHead, pg.cur.freeHead = chainHead(j.spaceChain), chainHead(j.freeChain)
	j.meta = pg.cur

	// Every page free in the sealed commit is reusable from now on, those
	// its transaction freed included: the open transaction writes nothing
	// to disk until its own commit, which starts only after this one has
	// landed, when the last durable commit no longer references them.
	pg.reusable = append(pg.reusable, pg.pending...)
	pg.dirty = map[uint32]*page{}
	pg.txNew = map[uint32]bool{}
	pg.pending = nil
	pg.inflight = j
	go pg.runCommit(j)
}

func chainHead(nos []uint32) uint32 {
	if len(nos) == 0 {
		return 0
	}
	return nos[0]
}

// runCommit is the committer: it makes a sealed commit durable. Data and
// overflow pages are written first, then the B-tree pages, then the
// space-map and free-list chains, then one fsync; only then is the commit
// record written to the alternate meta slot and fsynced. A crash at any
// byte boundary leaves the previous commit record intact and pointing
// exclusively at pages this commit never touched.
func (pg *pager) runCommit(j *commitJob) {
	defer close(j.done)
	// The free set as of this commit, deduplicated and sorted so the
	// chain (and therefore reuse order after a reopen) is deterministic.
	sort.Slice(j.free, func(a, b int) bool { return j.free[a] < j.free[b] })
	free := j.free[:0]
	for i, no := range j.free {
		if i == 0 || no != free[len(free)-1] {
			free = append(free, no)
		}
	}
	// The space map walks the dense array in page order: no sort.
	next := uint32(0)
	spacePages := pg.fillChain(j.spaceChain, pageSpace, 6, j.liveN, func(dst []byte) {
		for j.live[next] == 0 {
			next++
		}
		binary.LittleEndian.PutUint32(dst, next)
		binary.LittleEndian.PutUint16(dst[4:], j.live[next])
		next++
	})
	i := 0
	freePages := pg.fillChain(j.freeChain, pageFree, 4, len(free), func(dst []byte) {
		binary.LittleEndian.PutUint32(dst, free[i])
		i++
	})

	// Sealed pages are shared with readers on the request path, so each
	// is checksummed in a private copy rather than in place.
	out := newPage(0, pg.pageSize)
	write := func(p *page) error {
		out.no = p.no
		copy(out.buf, p.buf)
		out.seal()
		if _, err := pg.b.WriteAt(out.buf, int64(p.no)*int64(pg.pageSize)); err != nil {
			return err
		}
		j.written++
		return nil
	}
	for _, pass := range [][2]byte{{pageData, pageOverflow}, {pageLeaf, pageBranch}} {
		for _, p := range j.pages {
			if t := p.typ(); t != pass[0] && t != pass[1] {
				continue
			}
			if j.err = write(p); j.err != nil {
				return
			}
		}
	}
	for _, p := range append(spacePages, freePages...) {
		if j.err = write(p); j.err != nil {
			return
		}
	}
	if j.err = pg.b.Sync(); j.err != nil {
		return
	}
	if j.err = pg.writeMetaSlot(j.meta); j.err != nil {
		return
	}
	j.err = pg.b.Sync()
}

// landed reports whether the in-flight commit, if any, has finished.
func (pg *pager) landed() bool {
	if pg.inflight == nil {
		return true
	}
	select {
	case <-pg.inflight.done:
		return true
	default:
		return false
	}
}

// poll publishes the in-flight commit if it has finished, without waiting.
func (pg *pager) poll() {
	if pg.inflight != nil && pg.landed() {
		pg.publish()
	}
}

// wait blocks until no commit is in flight, publishing the one that was,
// and returns the pager's sticky error.
func (pg *pager) wait() error {
	if j := pg.inflight; j != nil {
		<-j.done
		pg.publish()
	}
	return pg.err
}

// publish applies a finished commit: on success its record becomes the
// committed state and its pages enter the clean cache; a failure poisons
// the pager.
func (pg *pager) publish() {
	j := pg.inflight
	pg.inflight = nil
	if j.err != nil {
		pg.err = fmt.Errorf("store: commit failed, store is read-back-only: %w", j.err)
		return
	}
	pg.committed = j.meta
	pg.freeChain, pg.spaceChain = j.freeChain, j.spaceChain
	for _, p := range j.pages {
		pg.cacheInsert(p)
	}
	pg.stats.PagesWritten += j.written
	pg.stats.Commits++
}
