package schedule

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/tree"
)

// CacheKey derives the content-addressed key of a job: the canonical tree
// digest, the algorithm name, the memory budget, the Best-K window and a
// digest of the replay order (orders are long, so they are hashed rather
// than inlined). Jobs with equal keys are guaranteed to produce equal rows
// up to the Seconds column, because every field an algorithm's Run can
// observe is part of the key. The instance name is deliberately excluded —
// it is reporting identity, not algorithm input — and the cached backend
// restamps it on every hit, so the same tree cached under one name is
// shared by all names.
func CacheKey(j Job) string {
	var km keyMemo
	return km.key(j)
}

// keyMemo derives the CacheKeys of one call's jobs, hashing each distinct
// order once. Tree digests need no memo: a *tree.Tree caches its own.
// Orders are memoized by the address of their first element and their
// length, the identity encodeBatchBinary dedupes on and decodeBatchBinary
// preserves, so the jobs a policy grid derives from one traversal share a
// single hash. Orders are mutable []int, so a keyMemo must not outlive the
// call that made it. The zero value is ready to use.
type keyMemo struct {
	orders map[orderID][sha256.Size]byte
}

// orderID identifies an order slice by its first element and length; all
// empty orders share the zero head.
type orderID struct {
	head *int
	n    int
}

func (km *keyMemo) key(j Job) string {
	td := j.Tree.Digest()
	if j.Order == nil {
		return cacheKey(j, td, nil)
	}
	id := orderID{n: len(j.Order)}
	if id.n > 0 {
		id.head = &j.Order[0]
	}
	od, ok := km.orders[id]
	if !ok {
		od = orderDigest(j.Order)
		if km.orders == nil {
			km.orders = map[orderID][sha256.Size]byte{}
		}
		km.orders[id] = od
	}
	return cacheKey(j, td, &od)
}

// cacheKey renders a job's key from its tree digest and its order digest
// (nil for a job without an order):
// <tree digest>/<algorithm>/m<memory>/w<window>/o<'-' or order digest>.
func cacheKey(j Job, td tree.Digest, od *[sha256.Size]byte) string {
	var sb strings.Builder
	sb.Grow(2*len(td) + len(j.Algorithm) + 2*sha256.Size + 48)
	var scratch [2 * sha256.Size]byte
	hex.Encode(scratch[:], td[:])
	sb.Write(scratch[:])
	sb.WriteByte('/')
	sb.WriteString(j.Algorithm)
	sb.WriteString("/m")
	sb.Write(strconv.AppendInt(scratch[:0], j.Memory, 10))
	sb.WriteString("/w")
	sb.Write(strconv.AppendInt(scratch[:0], int64(j.Window), 10))
	sb.WriteString("/o")
	if od == nil {
		sb.WriteByte('-')
	} else {
		hex.Encode(scratch[:], od[:])
		sb.Write(scratch[:])
	}
	return sb.String()
}

// orderDigest hashes an order as the decimal text "v," of each node in
// turn, in large writes through one stack buffer.
func orderDigest(order []int) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	b := buf[:0]
	for _, v := range order {
		if len(b)+21 > len(buf) { // 21 = len("-9223372036854775808,")
			h.Write(b)
			b = buf[:0]
		}
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	h.Write(b)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// CheckWarmEntry reports whether a warm row arriving from outside the
// process may be stored under its key. The key must parse as cacheKey's
// form — <tree digest>/<registered algorithm>/m<int>/w<int>/o<'-' or
// order digest>, digests in tree.ParseDigest's hex form — and agree with
// the row: the same algorithm and budget, and the algorithm's registry
// kind. No registry name contains '/'. It lives beside cacheKey so the key
// format stays known to this file alone.
func CheckWarmEntry(e WarmEntry) error {
	digest, rest, _ := strings.Cut(e.Key, "/")
	name, rest, _ := strings.Cut(rest, "/")
	m, rest, _ := strings.Cut(rest, "/")
	w, order, ok := strings.Cut(rest, "/")
	budget, okM := keyInt(m, "m")
	_, okW := keyInt(w, "w")
	order, okO := strings.CutPrefix(order, "o")
	if !ok || !okM || !okW || !okO || !isDigest(digest) || (order != "-" && !isDigest(order)) {
		return fmt.Errorf("schedule: malformed cache key %q", e.Key)
	}
	alg, err := Lookup(name)
	if err != nil {
		return err
	}
	if e.Row.Algorithm != name || e.Row.Budget != budget || e.Row.Kind != alg.Kind().String() {
		return fmt.Errorf("schedule: cache key %q does not match its %s row %q at budget %d",
			e.Key, e.Row.Kind, e.Row.Algorithm, e.Row.Budget)
	}
	return nil
}

// isDigest reports whether s is a digest in tree.ParseDigest's hex form.
func isDigest(s string) bool {
	_, err := tree.ParseDigest(s)
	return err == nil
}

// keyInt parses a cacheKey field: prefix, then a decimal integer.
func keyInt(field, prefix string) (int64, bool) {
	s, ok := strings.CutPrefix(field, prefix)
	v, err := strconv.ParseInt(s, 10, 64)
	return v, ok && err == nil
}

// Store is a content-addressed row store for the cached backend. Get and
// Put must be safe for concurrent use.
type Store interface {
	Get(key string) (Row, bool)
	Put(key string, row Row) error
}

// StoreOptions configures a PagedStore.
type StoreOptions struct {
	// MaxEntries bounds the number of rows the store keeps; ≤ 0 means
	// unbounded. When a Put would exceed the bound, the least-recently-used
	// entry (Get counts as use) is evicted and the store's eviction counter
	// advances.
	MaxEntries int
}

// MemStore is an unbounded in-memory Store, a key→row map. The zero value
// is not usable; construct with NewMemStore.
type MemStore struct {
	mu sync.Mutex
	m  map[string]Row
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]Row{}} }

// Get implements Store.
func (s *MemStore) Get(key string) (Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := s.m[key]
	return row, ok
}

// Put implements Store.
func (s *MemStore) Put(key string, row Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = row
	return nil
}

// Len returns the number of cached rows.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Cached decorates a Backend with a content-addressed result cache: jobs
// whose CacheKey is in the store are answered with the stored row
// (bit-identical replay, original Seconds included); only the misses reach
// the inner backend, and their rows are stored as they complete, so a batch
// that fails half-way still banks the finished work. Construct with
// NewCached.
type Cached struct {
	inner  Backend
	store  Store
	hits   atomic.Int64
	misses atomic.Int64
}

// NewCached wraps inner with the store. A nil store selects a fresh
// MemStore; a nil inner selects Local.
func NewCached(inner Backend, store Store) *Cached {
	if inner == nil {
		inner = Local{}
	}
	if store == nil {
		store = NewMemStore()
	}
	return &Cached{inner: inner, store: store}
}

// Capabilities implements Backend.
func (c *Cached) Capabilities() Capabilities {
	in := c.inner.Capabilities()
	return Capabilities{Name: "cached(" + in.Name + ")", Remote: in.Remote, Cached: true}
}

// Counters returns the cumulative hit and miss counts across Run calls.
func (c *Cached) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Run implements Backend. Hit rows are streamed to OnRow first (in job
// order), then the misses stream as the inner backend completes them. Miss
// rows are stored as they complete (not after the batch), so one failing
// job does not discard the rows that did finish — the rerun only pays for
// what is genuinely missing.
func (c *Cached) Run(ctx context.Context, jobs []Job, opt BatchOptions) ([]Row, error) {
	// Drawn from the stream engine's row pool, like Local.Run, so warmed
	// streaming chunks recycle their row slices through the merge loop.
	rows := getRowSlice(len(jobs))
	keys := make([]string, len(jobs))
	var km keyMemo
	var missIdx []int
	for i, j := range jobs {
		keys[i] = km.key(j)
		if row, ok := c.store.Get(keys[i]); ok {
			// The instance name is reporting identity, not algorithm input,
			// so it is not part of the key: restamp the stored row with this
			// job's name to keep the replay indistinguishable from a run.
			row.Instance = j.Instance
			rows[i] = row
			c.hits.Add(1)
			if opt.OnRow != nil {
				opt.OnRow(row)
			}
			if opt.OnRowIndexed != nil {
				opt.OnRowIndexed(i, row)
			}
		} else {
			c.misses.Add(1)
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		return rows, nil
	}
	missJobs := make([]Job, len(missIdx))
	for k, i := range missIdx {
		missJobs[k] = jobs[i]
	}
	var putErr error // OnRowIndexed calls are serialized by the Backend contract
	missOpt := BatchOptions{
		Workers: opt.Workers,
		OnRowIndexed: func(k int, r Row) {
			if err := c.store.Put(keys[missIdx[k]], r); err != nil && putErr == nil {
				putErr = err
			}
			if opt.OnRow != nil {
				opt.OnRow(r)
			}
			if opt.OnRowIndexed != nil {
				opt.OnRowIndexed(missIdx[k], r)
			}
		},
	}
	missRows, err := c.inner.Run(ctx, missJobs, missOpt)
	if err != nil {
		return nil, err
	}
	if putErr != nil {
		return nil, putErr
	}
	for k, i := range missIdx {
		rows[i] = missRows[k]
	}
	return rows, nil
}

// Admit implements Admitter by delegating to the inner backend when it is
// one: a cache in front of a shard must not hide the shard's admission
// verdict, since a shed batch would otherwise just queue behind the cache.
// An inner backend without admission control admits everything.
func (c *Cached) Admit(jobs int) error {
	if a, ok := c.inner.(Admitter); ok {
		return a.Admit(jobs)
	}
	return nil
}

// Stream implements Backend by chunking the source through Run: within each
// chunk the hits are answered from the store without touching the inner
// backend — a fully warm chunk costs zero algorithm runs and its rows flow
// straight to the sink — while the misses batch up and run on the inner
// backend as one sub-batch. Chunks evaluate concurrently and merge into the
// sink in job order.
func (c *Cached) Stream(ctx context.Context, src JobSource, sink RowSink, opt StreamOptions) error {
	return StreamChunked(ctx, c.Run, src, sink, opt)
}
