package service

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"mime"
	"strings"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// The binary batch transport is the allocation-light sibling of the JSON
// protocol: the same POST /v1/batch endpoint, negotiated per side by media
// type. The request body replaces the JSON envelope (Content-Type
// ContentTypeBinaryBatch) and the response stream replaces JSON Lines
// (Accept ContentTypeBinaryRows); the two are independent, so a shard may
// mix JSON and binary children mid-upgrade. Both bodies open with
// schedule.WireMagic, a kind byte and a version byte, like every other
// binary schedule stream.
//
// Request ('B', version 1):
//
//	uvarint workers
//	uvarint tree count, then each tree in tree.AppendBinary form
//	uvarint order count, then each order as uvarint length + varint nodes
//	uvarint job count, then per job: uvarint tree index,
//	    uvarint order index + 1 (0 = no order), instance and algorithm as
//	    uvarint length + bytes, memory and window as varints
//
// Orders are deduplicated by slice identity, so the thousands of jobs a
// minimum-IO grid derives from one traversal share a single order table
// entry — and the decoded jobs share a single []int, like the originals.
//
// Response ('b', version 1): a stream of uvarint-length-prefixed frames,
// each opening with a type byte —
//
//	1 (row):   uvarint job index, then the row in schedule.AppendRow form
//	2 (done):  uvarint row count; terminates a successful stream
//	3 (error): the error message bytes; terminates a failed stream
//
// mirroring the JSON Lines contract: rows stream in completion order and a
// stream without a terminator frame is truncated, not short.
//
// Both response forms flush at three points only: once when the 200
// status commits (the batch may still be queued), whenever the HTTP
// server's write buffer fills, and at the terminator. Rows are not
// flushed one by one, so a long batch still streams in buffer-sized
// pieces while a short one travels in a single write.

// ContentTypeBinaryBatch is the media type of a binary batch request body.
const ContentTypeBinaryBatch = "application/x-schedule-batch"

// ContentTypeBinaryRows is the media type of a binary batch response
// stream, requested via the Accept header.
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

// encodeBatchBinary serializes a batch in the binary request form: each
// distinct tree once, each distinct order slice once.
func encodeBatchBinary(jobs []schedule.Job, workers int) ([]byte, error) {
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
			return nil, fmt.Errorf("service: job %d has a nil tree", i)
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
	for _, t := range trees {
		buf = t.AppendBinary(buf)
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
	return buf, nil
}

// decodeBatchBinary parses a binary batch request body into jobs sharing
// one *tree.Tree per table entry and one []int per order table entry.
func decodeBatchBinary(data []byte) (jobs []schedule.Job, workers int, err error) {
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
	trees := make([]*tree.Tree, treeCount)
	for i := range trees {
		var t *tree.Tree
		t, data, err = tree.DecodeBinary(data)
		if err != nil {
			return nil, 0, fmt.Errorf("service: binary batch tree %d: %w", i, err)
		}
		trees[i] = t
	}
	orderCount := uv("order count")
	if err != nil {
		return nil, 0, err
	}
	if orderCount > uint64(len(data)) {
		return nil, 0, fmt.Errorf("service: binary batch claims %d orders in %d bytes", orderCount, len(data))
	}
	orders := make([][]int, orderCount)
	for i := range orders {
		n := uv("order length")
		if err != nil {
			return nil, 0, err
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
		orders[i] = o
	}
	jobCount := uv("job count")
	if err != nil {
		return nil, 0, err
	}
	if jobCount > uint64(len(data)) {
		return nil, 0, fmt.Errorf("service: binary batch claims %d jobs in %d bytes", jobCount, len(data))
	}
	jobs = make([]schedule.Job, jobCount)
	for i := range jobs {
		ti := uv("tree index")
		oi := uv("order index")
		inst := str("instance")
		alg := str("algorithm")
		mem := sv("memory")
		win := sv("window")
		if err != nil {
			return nil, 0, err
		}
		if ti >= uint64(len(trees)) {
			return nil, 0, fmt.Errorf("service: job %d references tree %d of %d", i, ti, len(trees))
		}
		var order []int
		if oi > 0 {
			if oi > uint64(len(orders)) {
				return nil, 0, fmt.Errorf("service: job %d references order %d of %d", i, oi-1, len(orders))
			}
			order = orders[oi-1]
		}
		jobs[i] = schedule.Job{
			Instance:  inst,
			Tree:      trees[ti],
			Algorithm: alg,
			Order:     order,
			Memory:    mem,
			Window:    int(win),
		}
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

// acceptsBinaryRows reports whether an Accept header asks for the binary
// response stream. Absent or wildcard Accept keeps the JSON Lines default.
func acceptsBinaryRows(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && mt == ContentTypeBinaryRows {
			return true
		}
	}
	return false
}

// batchResponder abstracts the two response stream forms so handleBatch
// evaluates once regardless of negotiation.
type batchResponder interface {
	row(i int, r schedule.Row)
	fail(msg string)
	done(count int)
}

// jsonResponder streams the JSON Lines response form.
type jsonResponder struct {
	enc     interface{ Encode(any) error }
	flusher interface{ Flush() }
}

func (j *jsonResponder) row(i int, r schedule.Row) { j.enc.Encode(BatchLine{Index: i, Row: &r}) }

func (j *jsonResponder) fail(msg string) { j.end(BatchLine{Error: msg}) }

func (j *jsonResponder) done(count int) { j.end(BatchLine{Done: true, Count: count}) }

// end writes the terminator line and flushes the stream.
func (j *jsonResponder) end(line BatchLine) {
	j.enc.Encode(line)
	if j.flusher != nil {
		j.flusher.Flush()
	}
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
// rows/got exactly like the JSON Lines reader: duplicate indices (replays
// from an earlier attempt) are dropped, an error frame is a deterministic
// failure, and a stream that ends without a terminator frame is transient.
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
