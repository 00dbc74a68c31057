package service

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"mime"
	"sync"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// POST /v1/batch speaks one transport, binary both ways: the request body
// is Content-Type ContentTypeBinaryBatch and the response stream
// ContentTypeBinaryRows. Both bodies open with schedule.WireMagic, a kind
// byte and a version byte, like every other binary schedule stream.
//
// Request ('B', version 1):
//
//	uvarint workers
//	uvarint tree count, then each tree entry: either a tree inline in
//	    tree.AppendBinary form (it opens with tree.BinaryMagic, 0xA9) or a
//	    reference, the byte treeRefMarker (0x00) then the tree's 32-byte
//	    tree.Digest
//	uvarint order count, then each order as uvarint length (at least 1)
//	    + varint nodes
//	uvarint job count, then per job: uvarint tree index,
//	    uvarint order index + 1 (0 = no order), instance and algorithm as
//	    uvarint length + bytes, memory and window as varints
//
// Orders are deduplicated by slice identity, so the thousands of jobs a
// minimum-IO grid derives from one traversal share a single order table
// entry — and the decoded jobs share a single []int, like the originals.
// Orders always travel inline.
//
// A reference names a tree the server already holds, so a tree crosses
// the wire, is decoded and is hashed once per server, not once per batch.
// Every server retains the inline trees it decodes, per tenant and by
// digest, in a cache bounded by retainNodes tree nodes with least-recently-
// used eviction. A reference resolves against that cache only; one it
// does not hold is answered 409 before the response stream commits, with a
// JSON body (unknownTreesBody) listing the missing digests. Every response to a
// batch request carries TreeRefsHeader, and a client references trees
// only on a server that sent it, so servers predating references keep
// receiving inline trees. A client references only the trees it shipped
// inline in a batch that completed (it read the done frame), remembered
// under the same node bound; on a 409 it forgets the listed digests and
// resends the batch once with every tree inline, outside its Retries
// budget. A server restart or an eviction thus costs one resend, never a
// failed batch.
//
// Response ('b', version 1): a stream of uvarint-length-prefixed frames,
// each opening with a type byte —
//
//	1 (row):   uvarint job index, then the row in schedule.AppendRow form
//	2 (done):  uvarint row count; terminates a successful stream
//	3 (error): the error message bytes; terminates a failed stream
//
// Rows stream in completion order, and a stream without a terminator frame
// is truncated, not short.
//
// The response flushes at three points only: once when the 200 status
// commits (the batch may still be queued), whenever the HTTP server's
// write buffer fills, and at the terminator. Rows are not flushed one by
// one, so a long batch still streams in buffer-sized pieces while a short
// one travels in a single write.

// ContentTypeBinaryBatch is the media type of a binary batch request body.
const ContentTypeBinaryBatch = "application/x-schedule-batch"

// ContentTypeBinaryRows is the media type of a binary batch response
// stream.
const ContentTypeBinaryRows = "application/x-schedule-rows"

const (
	batchRequestKind   = 'B'
	batchResponseKind  = 'b'
	binaryBatchVersion = 1
)

// Binary response frame types.
const (
	frameRow   = 1
	frameDone  = 2
	frameError = 3
)

// maxResponseFrame bounds one response frame; a longer prefix is corruption.
const maxResponseFrame = 1 << 20

// treeRefMarker opens a reference entry in a binary batch's tree table. An
// inline entry opens with tree.BinaryMagic instead.
const treeRefMarker = 0x00

// TreeRefsHeader is set on every response to a batch request by a server
// that resolves tree references. A Client references trees only on a
// server whose last batch response carried it.
const TreeRefsHeader = "X-Schedule-Tree-Refs"

// retainNodes bounds, in tree nodes, both the trees a server retains and
// the digests a client remembers shipping to one server.
const retainNodes = 1 << 20

// encodeBatchBinary serializes a batch in the binary request form: each
// distinct tree once, each distinct order slice once. A tree for which ref
// reports true travels as a reference entry, every other tree inline; a
// nil ref inlines every tree. It returns the body and the inlined trees.
func encodeBatchBinary(jobs []schedule.Job, workers int, ref func(*tree.Tree) bool) ([]byte, []*tree.Tree, error) {
	if workers < 0 {
		workers = 0
	}
	buf := []byte{schedule.WireMagic, batchRequestKind, binaryBatchVersion}
	buf = binary.AppendUvarint(buf, uint64(workers))
	type orderKey struct {
		head *int
		n    int
	}
	treeIdx := map[*tree.Tree]int{}
	var trees []*tree.Tree
	orderIdx := map[orderKey]int{}
	var orders [][]int
	for i := range jobs {
		j := &jobs[i]
		if j.Tree == nil {
			return nil, nil, fmt.Errorf("service: job %d has a nil tree", i)
		}
		if _, ok := treeIdx[j.Tree]; !ok {
			treeIdx[j.Tree] = len(trees)
			trees = append(trees, j.Tree)
		}
		if len(j.Order) > 0 {
			k := orderKey{&j.Order[0], len(j.Order)}
			if _, ok := orderIdx[k]; !ok {
				orderIdx[k] = len(orders)
				orders = append(orders, j.Order)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(trees)))
	var inline []*tree.Tree
	for _, t := range trees {
		if ref != nil && ref(t) {
			d := t.Digest()
			buf = append(append(buf, treeRefMarker), d[:]...)
			continue
		}
		buf = t.AppendBinary(buf)
		inline = append(inline, t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(orders)))
	for _, o := range orders {
		buf = binary.AppendUvarint(buf, uint64(len(o)))
		for _, v := range o {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(jobs)))
	for i := range jobs {
		j := &jobs[i]
		buf = binary.AppendUvarint(buf, uint64(treeIdx[j.Tree]))
		oi := 0
		if len(j.Order) > 0 {
			oi = orderIdx[orderKey{&j.Order[0], len(j.Order)}] + 1
		}
		buf = binary.AppendUvarint(buf, uint64(oi))
		buf = binary.AppendUvarint(buf, uint64(len(j.Instance)))
		buf = append(buf, j.Instance...)
		buf = binary.AppendUvarint(buf, uint64(len(j.Algorithm)))
		buf = append(buf, j.Algorithm...)
		buf = binary.AppendVarint(buf, j.Memory)
		buf = binary.AppendVarint(buf, int64(j.Window))
	}
	return buf, inline, nil
}

// treeResolver serves the tree table of a binary batch: resolve looks up a
// reference entry's digest, and adopt receives each decoded inline tree
// and returns the tree the batch's jobs share, an equal one already held
// or the tree itself.
type treeResolver interface {
	resolve(d tree.Digest) (*tree.Tree, bool)
	adopt(t *tree.Tree) *tree.Tree
}

// unknownTreesError reports the reference entries of a binary batch that
// resolved nowhere, each digest once.
type unknownTreesError struct {
	digests []tree.Digest
	seen    map[tree.Digest]bool
}

func (e *unknownTreesError) add(d tree.Digest) {
	if e.seen == nil {
		e.seen = map[tree.Digest]bool{}
	}
	if !e.seen[d] {
		e.seen[d] = true
		e.digests = append(e.digests, d)
	}
}

func (e *unknownTreesError) Error() string {
	return fmt.Sprintf("service: binary batch references %d trees the server does not hold (first %s)", len(e.digests), e.digests[0])
}

// unknownTreesBody is the JSON body of the 409 answer to a binary batch
// with unknown references.
type unknownTreesBody struct {
	Error   string   `json:"error"`
	Missing []string `json:"missing"`
}

// maxTablePrealloc bounds the entries a 'B' table reserves for the count
// its header claims. Past it the table grows as its entries decode, so a
// count the body cannot back costs no memory.
const maxTablePrealloc = 1024

// decodeBatchBinary parses a binary batch request body into jobs sharing
// one *tree.Tree per table entry and one []int per order table entry.
// Reference entries resolve through trees and inline trees are adopted by
// it; a nil trees resolves no reference. When references resolve nowhere,
// the error is an *unknownTreesError listing them, and the rest of the
// body is not read.
func decodeBatchBinary(data []byte, trees treeResolver) (jobs []schedule.Job, workers int, err error) {
	if len(data) < 3 {
		return nil, 0, fmt.Errorf("service: binary batch request too short")
	}
	if data[0] != schedule.WireMagic || data[1] != batchRequestKind {
		return nil, 0, fmt.Errorf("service: bad binary batch header % X", data[:3])
	}
	if data[2] != binaryBatchVersion {
		return nil, 0, fmt.Errorf("service: unsupported binary batch version %d (want %d)", data[2], binaryBatchVersion)
	}
	data = data[3:]
	uv := func(field string) uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(data)
		if n <= 0 {
			err = fmt.Errorf("service: binary batch has a malformed %s", field)
			return 0
		}
		data = data[n:]
		return v
	}
	sv := func(field string) int64 {
		if err != nil {
			return 0
		}
		v, n := binary.Varint(data)
		if n <= 0 {
			err = fmt.Errorf("service: binary batch has a malformed %s", field)
			return 0
		}
		data = data[n:]
		return v
	}
	str := func(field string) string {
		n := uv(field)
		if err != nil {
			return ""
		}
		if n > uint64(len(data)) {
			err = fmt.Errorf("service: binary batch has a truncated %s", field)
			return ""
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	w := uv("workers count")
	treeCount := uv("tree count")
	if err != nil {
		return nil, 0, err
	}
	if w > math.MaxInt {
		return nil, 0, fmt.Errorf("service: binary batch workers count %d overflows int", w)
	}
	if treeCount > uint64(len(data)) {
		return nil, 0, fmt.Errorf("service: binary batch claims %d trees in %d bytes", treeCount, len(data))
	}
	table := make([]*tree.Tree, 0, min(treeCount, maxTablePrealloc))
	var unknown *unknownTreesError
	for i := uint64(0); i < treeCount; i++ {
		var t *tree.Tree
		if len(data) > 0 && data[0] == treeRefMarker {
			var d tree.Digest
			if len(data) < 1+len(d) {
				return nil, 0, fmt.Errorf("service: binary batch tree %d has a truncated reference", i)
			}
			copy(d[:], data[1:])
			data = data[1+len(d):]
			var ok bool
			if trees != nil {
				t, ok = trees.resolve(d)
			}
			if !ok {
				if unknown == nil {
					unknown = &unknownTreesError{}
				}
				unknown.add(d)
			}
		} else {
			t, data, err = tree.DecodeBinary(data)
			if err != nil {
				return nil, 0, fmt.Errorf("service: binary batch tree %d: %w", i, err)
			}
			if trees != nil {
				t = trees.adopt(t)
			}
		}
		// A batch with an unknown reference never runs: past the first,
		// only the missing digests are collected.
		if unknown == nil {
			table = append(table, t)
		}
	}
	if unknown != nil {
		return nil, 0, unknown
	}
	orderCount := uv("order count")
	if err != nil {
		return nil, 0, err
	}
	if orderCount > uint64(len(data)) {
		return nil, 0, fmt.Errorf("service: binary batch claims %d orders in %d bytes", orderCount, len(data))
	}
	orders := make([][]int, 0, min(orderCount, maxTablePrealloc))
	for i := uint64(0); i < orderCount; i++ {
		n := uv("order length")
		if err != nil {
			return nil, 0, err
		}
		if n == 0 {
			return nil, 0, fmt.Errorf("service: binary batch order %d is empty", i)
		}
		if n > uint64(len(data)) {
			return nil, 0, fmt.Errorf("service: binary batch order %d claims %d nodes in %d bytes", i, n, len(data))
		}
		o := make([]int, n)
		for k := range o {
			o[k] = int(sv("order node"))
		}
		if err != nil {
			return nil, 0, err
		}
		orders = append(orders, o)
	}
	jobCount := uv("job count")
	if err != nil {
		return nil, 0, err
	}
	if jobCount > uint64(len(data)) {
		return nil, 0, fmt.Errorf("service: binary batch claims %d jobs in %d bytes", jobCount, len(data))
	}
	jobs = make([]schedule.Job, 0, min(jobCount, maxTablePrealloc))
	for i := uint64(0); i < jobCount; i++ {
		ti := uv("tree index")
		oi := uv("order index")
		inst := str("instance")
		alg := str("algorithm")
		mem := sv("memory")
		win := sv("window")
		if err != nil {
			return nil, 0, err
		}
		if ti >= uint64(len(table)) {
			return nil, 0, fmt.Errorf("service: job %d references tree %d of %d", i, ti, len(table))
		}
		var order []int
		if oi > 0 {
			if oi > uint64(len(orders)) {
				return nil, 0, fmt.Errorf("service: job %d references order %d of %d", i, oi-1, len(orders))
			}
			order = orders[oi-1]
		}
		jobs = append(jobs, schedule.Job{
			Instance:  inst,
			Tree:      table[ti],
			Algorithm: alg,
			Order:     order,
			Memory:    mem,
			Window:    int(win),
		})
	}
	if len(data) != 0 {
		return nil, 0, fmt.Errorf("service: binary batch has %d trailing bytes", len(data))
	}
	return jobs, int(w), nil
}

// isBinaryBatch reports whether a request Content-Type selects the binary
// batch request form.
func isBinaryBatch(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == ContentTypeBinaryBatch
}

// isBinaryRows reports whether a response Content-Type is the framed
// binary row stream.
func isBinaryRows(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == ContentTypeBinaryRows
}

// binaryResponder streams the framed binary response form, reusing one
// scratch buffer and one length-prefix buffer across frames.
type binaryResponder struct {
	w       io.Writer
	flusher interface{ Flush() }
	scratch []byte
	lenBuf  [binary.MaxVarintLen64]byte
	header  bool
}

func (b *binaryResponder) frame() {
	if !b.header {
		b.header = true
		b.w.Write([]byte{schedule.WireMagic, batchResponseKind, binaryBatchVersion})
	}
	n := binary.PutUvarint(b.lenBuf[:], uint64(len(b.scratch)))
	b.w.Write(b.lenBuf[:n])
	b.w.Write(b.scratch)
}

// end writes the terminator frame and flushes the stream.
func (b *binaryResponder) end() {
	b.frame()
	if b.flusher != nil {
		b.flusher.Flush()
	}
}

func (b *binaryResponder) row(i int, r schedule.Row) {
	b.scratch = append(b.scratch[:0], frameRow)
	b.scratch = binary.AppendUvarint(b.scratch, uint64(i))
	b.scratch = schedule.AppendRow(b.scratch, r)
	b.frame()
}

func (b *binaryResponder) fail(msg string) {
	b.scratch = append(b.scratch[:0], frameError)
	b.scratch = append(b.scratch, msg...)
	b.end()
}

func (b *binaryResponder) done(count int) {
	b.scratch = append(b.scratch[:0], frameDone)
	b.scratch = binary.AppendUvarint(b.scratch, uint64(count))
	b.end()
}

// readBinaryResponse consumes a binary batch response stream, filling
// rows/got: duplicate indices (replays from an earlier attempt) are
// dropped, an error frame is a deterministic failure, and a stream that
// ends without a terminator frame is transient.
func readBinaryResponse(body io.Reader, jobs []schedule.Job, opt schedule.BatchOptions, rows []schedule.Row, got []bool) error {
	br := bufio.NewReader(body)
	var hdr [3]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return transientError{fmt.Errorf("service: binary response header: %w", err)}
	}
	if hdr[0] != schedule.WireMagic || hdr[1] != batchResponseKind {
		return fmt.Errorf("service: bad binary response header % X", hdr[:])
	}
	if hdr[2] != binaryBatchVersion {
		return fmt.Errorf("service: unsupported binary response version %d (want %d)", hdr[2], binaryBatchVersion)
	}
	var buf []byte
	for {
		frameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return transientError{fmt.Errorf("service: binary response stream truncated (no terminator frame)")}
		}
		if frameLen == 0 || frameLen > maxResponseFrame {
			return fmt.Errorf("service: binary response frame of %d bytes is out of range", frameLen)
		}
		if uint64(cap(buf)) < frameLen {
			buf = make([]byte, frameLen)
		}
		buf = buf[:frameLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return transientError{fmt.Errorf("service: binary response stream truncated mid-frame: %w", err)}
		}
		switch buf[0] {
		case frameError:
			return fmt.Errorf("service: remote batch failed: %s", buf[1:])
		case frameDone:
			count, n := binary.Uvarint(buf[1:])
			if n <= 0 {
				return fmt.Errorf("service: binary response has a malformed done frame")
			}
			if count != uint64(len(jobs)) {
				return fmt.Errorf("service: server reports %d rows, want %d", count, len(jobs))
			}
			for i, ok := range got {
				if !ok {
					return fmt.Errorf("service: no row received for job %d", i)
				}
			}
			return nil
		case frameRow:
			idx, n := binary.Uvarint(buf[1:])
			if n <= 0 {
				return fmt.Errorf("service: binary response has a malformed row index")
			}
			row, rest, err := schedule.DecodeRow(buf[1+n:])
			if err != nil {
				return err
			}
			if len(rest) != 0 {
				return fmt.Errorf("service: binary row frame has %d trailing bytes", len(rest))
			}
			if idx >= uint64(len(jobs)) {
				return fmt.Errorf("service: row index %d out of range [0,%d)", idx, len(jobs))
			}
			if got[idx] {
				continue // replay of a row an earlier attempt delivered
			}
			rows[idx] = row
			got[idx] = true
			if opt.OnRow != nil {
				opt.OnRow(row)
			}
			if opt.OnRowIndexed != nil {
				opt.OnRowIndexed(int(idx), row)
			}
		default:
			return fmt.Errorf("service: unrecognized binary response frame type %d", buf[0])
		}
	}
}

// nodeLRU is a least-recently-used map bounded by the total node count of
// its entries rather than by their number: a server's retained trees and a
// client's record of the trees it shipped. It is safe for concurrent use,
// and the zero value is ready, bounded by retainNodes.
type nodeLRU[K comparable, V any] struct {
	mu     sync.Mutex
	budget int // ≤ 0: retainNodes
	nodes  int
	m      map[K]*list.Element
	lru    list.List // of *lruEntry, front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	nodes int
}

// get returns the value under k and marks it used.
func (c *nodeLRU[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*lruEntry[K, V]).val, true
}

// add stores v under k, an entry of the given node count, evicting the
// least recently used entries past the budget, and returns the value now
// under k: the one already there, if any, or v. An entry larger than the
// whole budget is not stored.
func (c *nodeLRU[K, V]) add(k K, v V, nodes int) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*lruEntry[K, V]).val
	}
	budget := c.budget
	if budget <= 0 {
		budget = retainNodes
	}
	if nodes > budget {
		return v
	}
	if c.m == nil {
		c.m = map[K]*list.Element{}
	}
	c.m[k] = c.lru.PushFront(&lruEntry[K, V]{key: k, val: v, nodes: nodes})
	c.nodes += nodes
	for c.nodes > budget {
		c.drop(c.lru.Back())
	}
	return v
}

// remove drops the entries under keys, where present.
func (c *nodeLRU[K, V]) remove(keys ...K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if e, ok := c.m[k]; ok {
			c.drop(e)
		}
	}
}

func (c *nodeLRU[K, V]) drop(e *list.Element) {
	ent := c.lru.Remove(e).(*lruEntry[K, V])
	delete(c.m, ent.key)
	c.nodes -= ent.nodes
}

// size returns the number of entries and their total node count.
func (c *nodeLRU[K, V]) size() (entries, nodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.nodes
}
