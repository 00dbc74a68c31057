package schedule

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/tree"
)

// JobSource is a pull iterator over jobs: the streaming half of the batch
// API. Next returns the next job of the stream; the boolean is false when
// the stream is exhausted (the job is the zero value and the error nil). A
// non-nil error aborts the stream. Sources are consumed by one goroutine at
// a time and need not be safe for concurrent use; after Stream returns an
// error, its winding-down reader may still complete one in-flight Next
// call, so an aborted source must not be handed to another consumer.
type JobSource interface {
	Next() (Job, bool, error)
}

// RowSink receives result rows. Backends deliver rows to the sink in job
// order (the order the source produced the jobs), one call at a time; a
// non-nil error aborts the stream.
type RowSink interface {
	Push(Row) error
}

// SourceFunc adapts a function to a JobSource.
type SourceFunc func() (Job, bool, error)

// Next implements JobSource.
func (f SourceFunc) Next() (Job, bool, error) { return f() }

// SinkFunc adapts a function to a RowSink.
type SinkFunc func(Row) error

// Push implements RowSink.
func (f SinkFunc) Push(r Row) error { return f(r) }

// SliceSource returns a JobSource over a materialized job slice.
func SliceSource(jobs []Job) JobSource {
	i := 0
	return SourceFunc(func() (Job, bool, error) {
		if i >= len(jobs) {
			return Job{}, false, nil
		}
		j := jobs[i]
		i++
		return j, true, nil
	})
}

// DefaultChunkSize is the job-chunk granularity of the streaming engine
// when StreamOptions.ChunkSize is unset: the unit of dispatch, retry and
// in-flight accounting.
const DefaultChunkSize = 64

// StreamOptions configures a Backend.Stream call.
type StreamOptions struct {
	// Workers bounds each chunk evaluation's worker pool, exactly like
	// BatchOptions.Workers (≤ 0 selects GOMAXPROCS).
	Workers int
	// ChunkSize is the number of jobs evaluated per dispatch unit
	// (≤ 0 selects DefaultChunkSize). Peak resident state on the streaming
	// path is bounded by ChunkSize × InFlight jobs and rows.
	ChunkSize int
	// InFlight bounds the number of chunks being evaluated (or awaiting
	// the ordered merge) at once. ≤ 0 selects a backend-specific default:
	// 2 for pipelined single backends, 2 × children for Shard.
	InFlight int
}

func (opt StreamOptions) chunking(defaultInFlight int) (chunkSize, inFlight int) {
	chunkSize = opt.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	inFlight = opt.InFlight
	if inFlight <= 0 {
		inFlight = defaultInFlight
	}
	if inFlight < 1 {
		inFlight = 1
	}
	return chunkSize, inFlight
}

// RunFunc is the batch-evaluation half of a Backend, the shape StreamChunked
// builds a streaming evaluator from.
type RunFunc func(ctx context.Context, jobs []Job, opt BatchOptions) ([]Row, error)

// StreamChunked implements Backend.Stream for any batch evaluator: it cuts
// the source into chunks of opt.ChunkSize, evaluates up to opt.InFlight of
// them concurrently with run, and pushes the rows to sink in job order (an
// order-preserving merge, so the streamed rows are bit-identical, in
// sequence, to a single Run over the materialized jobs). At most InFlight
// chunks exist at any moment — read from the source but not yet drained into
// the sink — so peak resident jobs and rows are bounded by
// ChunkSize × InFlight regardless of the stream length.
//
// The engine recycles its chunk machinery: the job slice passed to run and
// the row slice run returns go back to internal pools once the chunk's rows
// reach the sink, so chunk residency costs a constant pool of buffers
// instead of fresh allocations per chunk. run must therefore not retain
// either slice past its return (every backend in the repository already
// behaves this way; rows and jobs are plain values, so sinks and stores
// keeping pushed rows are unaffected).
func StreamChunked(ctx context.Context, run RunFunc, src JobSource, sink RowSink, opt StreamOptions) error {
	chunkSize, inFlight := opt.chunking(2)
	return streamChunks(ctx, src, sink, chunkSize, inFlight, func(ctx context.Context, _ int, jobs []Job) ([]Row, error) {
		return run(ctx, jobs, BatchOptions{Workers: opt.Workers})
	})
}

// streamResult is one chunk's outcome, delivered on its pooled result
// channel.
type streamResult struct {
	jobs int
	rows []Row
	err  error
}

// streamWork is one dispatched chunk: its global job offset, the pooled job
// buffer, and the channel its result is owed on.
type streamWork struct {
	start int
	jobs  *[]Job
	rc    chan streamResult
}

// The streaming engine's pools: job chunk buffers, row slices and result
// channels, recycled across chunks and across streams (the generalization
// of the hillvalley kernel and simScratch arenas to the batch spine). Row
// slices circulate through Run implementations — Local and Cached draw
// their result slices from getRowSlice — and return to the pool in the
// merge loop once the sink has consumed the chunk.
var (
	jobChunks = sync.Pool{New: func() any {
		p := make([]Job, 0, DefaultChunkSize)
		return &p
	}}
	rowSlices   = sync.Pool{New: func() any { return new([]Row) }}
	resultChans = sync.Pool{New: func() any { return make(chan streamResult, 1) }}
)

// putJobChunk clears the buffer (dropping tree and order references) and
// returns it to the pool.
func putJobChunk(p *[]Job) {
	clear(*p)
	*p = (*p)[:0]
	jobChunks.Put(p)
}

// getRowSlice returns a length-n row slice from the stream engine's pool.
// The caller owns it; slices handed back via putRowSlice recirculate.
func getRowSlice(n int) []Row {
	p := rowSlices.Get().(*[]Row)
	s := *p
	if cap(s) < n {
		return make([]Row, n)
	}
	return s[:n]
}

// putRowSlice clears the slice (dropping its string references) and returns
// it to the pool. Only an owner that got the slice from a Run it fully
// consumed may call this.
func putRowSlice(rows []Row) {
	clear(rows)
	rows = rows[:0]
	rowSlices.Put(&rows)
}

// streamChunks is the shared streaming engine behind every Backend.Stream:
// an ordered fan-out/fan-in pipeline. The dispatcher acquires an in-flight
// slot before reading each chunk (bounding read-ahead) and hands chunks to
// a fixed pool of inFlight evaluation workers; the merge loop drains
// per-chunk result channels in dispatch order, releasing the slot only
// after the chunk's rows reach the sink — so ChunkSize × InFlight bounds
// everything resident at once, and the pooled job/row/channel buffers make
// that residency allocation-free in the steady state. eval receives each
// chunk's global job offset within the stream, so evaluators can report
// failures by source index (the Shard's ChunkError).
func streamChunks(ctx context.Context, src JobSource, sink RowSink, chunkSize, inFlight int, eval func(ctx context.Context, start int, jobs []Job) ([]Row, error)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sem := make(chan struct{}, inFlight)
	order := make(chan chan streamResult, inFlight)
	work := make(chan streamWork)

	// Fixed worker pool, one goroutine per in-flight slot. A worker finishes
	// a chunk by sending on its buffered result channel (never blocking), so
	// every worker is reusable the moment its evaluation returns, and the
	// sem bound guarantees at most inFlight chunks are ever awaiting a
	// worker — the unbuffered work channel cannot deadlock the dispatcher.
	for i := 0; i < inFlight; i++ {
		go func() {
			for w := range work {
				rows, err := eval(ctx, w.start, *w.jobs)
				n := len(*w.jobs)
				putJobChunk(w.jobs)
				w.rc <- streamResult{jobs: n, rows: rows, err: err}
			}
		}()
	}

	go func() {
		defer close(order)
		defer close(work)
		offset := 0
		for {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			jp := jobChunks.Get().(*[]Job)
			jobs, err := readChunk(src, chunkSize, (*jp)[:0])
			*jp = jobs
			if err != nil {
				putJobChunk(jp)
				rc := resultChans.Get().(chan streamResult)
				rc <- streamResult{err: err}
				order <- rc
				return
			}
			if len(jobs) == 0 {
				putJobChunk(jp)
				return
			}
			start := offset
			offset += len(jobs)
			rc := resultChans.Get().(chan streamResult)
			select {
			case work <- streamWork{start: start, jobs: jp, rc: rc}:
			case <-ctx.Done():
				return
			}
			order <- rc
		}
	}()

	var firstErr error
	for rc := range order {
		res := <-rc
		// The channel's one send has been received, so it is empty and its
		// worker is done with it: safe to recirculate. Channels abandoned on
		// the abort path below are left to the garbage collector — a
		// straggler may still send on them.
		resultChans.Put(rc)
		switch {
		case res.err != nil:
			firstErr = res.err
		case len(res.rows) != res.jobs:
			firstErr = fmt.Errorf("schedule: stream chunk returned %d rows for %d jobs", len(res.rows), res.jobs)
		default:
			pushed := true
			for _, row := range res.rows {
				if err := sink.Push(row); err != nil {
					firstErr = err
					pushed = false
					break
				}
			}
			if pushed {
				putRowSlice(res.rows)
			}
		}
		<-sem
		if firstErr != nil {
			// Return without waiting for order to close: the dispatcher may
			// be blocked in src.Next() (a pipe source with no data yet) and
			// must not hold the error hostage. cancel() (deferred) winds it
			// and the workers down; nothing but this loop touches the sink,
			// and the bounded order/sem/work capacities mean no send ever
			// blocks forever, so the stragglers exit on their own.
			return firstErr
		}
	}
	// The dispatcher stops silently when the context is cancelled between
	// chunks; report that as the stream's error rather than letting a
	// truncated delivery read as success.
	return ctx.Err()
}

// readChunk pulls up to n jobs from src, appending into the pooled buffer.
// On a source error the partially filled buffer comes back with the error
// so the caller can still recycle it.
func readChunk(src JobSource, n int, jobs []Job) ([]Job, error) {
	for len(jobs) < n {
		j, ok, err := src.Next()
		if err != nil {
			return jobs, err
		}
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// RunViaStream implements Backend.Run on top of Backend.Stream: the jobs
// are streamed from a SliceSource and the rows collected in job order, with
// BatchOptions callbacks fired as each row is merged. It is the default
// adapter for stream-first backends (Shard implements Run this way).
func RunViaStream(ctx context.Context, b Backend, jobs []Job, opt BatchOptions) ([]Row, error) {
	rows := make([]Row, 0, len(jobs))
	sink := SinkFunc(func(r Row) error {
		i := len(rows)
		rows = append(rows, r)
		if opt.OnRow != nil {
			opt.OnRow(r)
		}
		if opt.OnRowIndexed != nil {
			opt.OnRowIndexed(i, r)
		}
		return nil
	})
	if err := b.Stream(ctx, SliceSource(jobs), sink, StreamOptions{Workers: opt.Workers}); err != nil {
		return nil, err
	}
	if len(rows) != len(jobs) {
		return nil, fmt.Errorf("schedule: stream produced %d rows for %d jobs", len(rows), len(jobs))
	}
	return rows, nil
}

// InstanceSource is a pull iterator over named trees: the streaming
// counterpart of an []Instance, letting corpus pipelines feed grids
// without materializing every tree at once. Like JobSource, sources are
// consumed by one goroutine at a time.
type InstanceSource interface {
	NextInstance() (Instance, bool, error)
}

// InstanceSliceSource adapts a materialized instance list.
func InstanceSliceSource(insts []Instance) InstanceSource {
	i := 0
	return instanceSourceFunc(func() (Instance, bool, error) {
		if i >= len(insts) {
			return Instance{}, false, nil
		}
		inst := insts[i]
		i++
		return inst, true, nil
	})
}

type instanceSourceFunc func() (Instance, bool, error)

func (f instanceSourceFunc) NextInstance() (Instance, bool, error) { return f() }

// GridSource streams the full per-instance experiment grid over an
// instance stream: for each instance, every MinMemory algorithm, then the
// orderBy solver's traversal replayed under every eviction policy at each
// memory budget derived by memories (which also receives the orderBy
// outcome, so sweeps anchored on the solver's memory need not re-run it).
// Within an instance, policy jobs are budget-major, then policy. Instances
// are pulled one at a time, so a corpus pipeline can overlap tree
// construction with evaluation. The orderBy name is validated eagerly;
// instances are prepared lazily, so an orderBy that proves a value but
// returns no traversal fails on the first Next that reaches its replay.
func GridSource(src InstanceSource, algorithms []string, orderBy string, policies []string, memories func(*tree.Tree, Outcome) ([]int64, error)) (JobSource, error) {
	orderAlg, err := Lookup(orderBy)
	if err != nil {
		return nil, err
	}
	if orderAlg.Kind() != KindMinMemory {
		return nil, fmt.Errorf("schedule: orderBy algorithm %q is not a MinMemory solver", orderBy)
	}
	var (
		cur     Instance
		have    bool
		ai      int
		order   []int
		mems    []int64
		mi, ki  int
		prepped bool
	)
	return SourceFunc(func() (Job, bool, error) {
		for {
			if !have {
				inst, ok, err := src.NextInstance()
				if err != nil || !ok {
					return Job{}, false, err
				}
				cur, have, ai, prepped = inst, true, 0, false
			}
			if ai < len(algorithms) {
				j := Job{Instance: cur.Name, Tree: cur.Tree, Algorithm: algorithms[ai]}
				ai++
				return j, true, nil
			}
			if len(policies) > 0 {
				if !prepped {
					out, err := orderAlg.Run(Request{Tree: cur.Tree})
					if err != nil {
						return Job{}, false, fmt.Errorf("schedule: %s: %s: %w", cur.Name, orderBy, err)
					}
					if out.Order == nil {
						return Job{}, false, fmt.Errorf("schedule: %s returns no traversal to replay", orderBy)
					}
					mems, err = memories(cur.Tree, out)
					if err != nil {
						return Job{}, false, fmt.Errorf("schedule: %s: %w", cur.Name, err)
					}
					order, mi, ki, prepped = out.Order, 0, 0, true
				}
				if mi < len(mems) {
					if ki < len(policies) {
						j := Job{Instance: cur.Name, Tree: cur.Tree, Algorithm: policies[ki], Order: order, Memory: mems[mi]}
						ki++
						return j, true, nil
					}
					mi, ki = mi+1, 0
					continue
				}
			}
			have = false
		}
	}), nil
}

// TreeDirSource streams jobs from the .tree files of a directory: every
// file (sorted by name, so the stream is deterministic) crossed with the
// given algorithm names, instance-named after the file. Files are parsed
// lazily, one at a time, as the stream reaches them.
func TreeDirSource(dir string, algorithms []string) (JobSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("schedule: tree dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".tree" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var (
		i   int
		k   int
		cur *tree.Tree
	)
	return SourceFunc(func() (Job, bool, error) {
		for i < len(names) {
			if cur == nil {
				f, err := os.Open(filepath.Join(dir, names[i]))
				if err != nil {
					return Job{}, false, fmt.Errorf("schedule: tree dir: %w", err)
				}
				cur, err = tree.Read(f)
				f.Close()
				if err != nil {
					return Job{}, false, fmt.Errorf("schedule: %s: %w", names[i], err)
				}
				k = 0
			}
			if k < len(algorithms) {
				name := names[i][:len(names[i])-len(".tree")]
				j := Job{Instance: name, Tree: cur, Algorithm: algorithms[k]}
				k++
				return j, true, nil
			}
			i, cur = i+1, nil
		}
		return Job{}, false, nil
	}), nil
}

// TreeStreamSource streams jobs from consecutive .tree documents on r
// (e.g. a corpus piped to stdin): each decoded tree crossed with the given
// algorithm names, instances named prefix-0, prefix-1, … in stream order.
// Trees are decoded lazily, one document at a time, so a corpus larger than
// memory can flow through as long as rows drain.
func TreeStreamSource(r io.Reader, prefix string, algorithms []string) JobSource {
	dec := tree.NewDecoder(r)
	var (
		n    int
		k    int
		cur  *tree.Tree
		done bool
	)
	return SourceFunc(func() (Job, bool, error) {
		for !done {
			if cur == nil {
				t, err := dec.Decode()
				if err == io.EOF {
					done = true
					return Job{}, false, nil
				}
				if err != nil {
					return Job{}, false, fmt.Errorf("schedule: tree stream: %w", err)
				}
				cur, k = t, 0
			}
			if k < len(algorithms) {
				j := Job{Instance: prefix + "-" + strconv.Itoa(n), Tree: cur, Algorithm: algorithms[k]}
				k++
				return j, true, nil
			}
			n, cur = n+1, nil
		}
		return Job{}, false, nil
	})
}

// CSVSink is a RowSink streaming rows as CSV, header first. Flush must be
// called once the stream completes; Push is not safe for concurrent use
// (the RowSink contract already serializes it).
type CSVSink struct {
	cw     *csv.Writer
	header bool
}

// NewCSVSink returns a sink writing CSV to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{cw: csv.NewWriter(w)} }

// Push implements RowSink.
func (s *CSVSink) Push(r Row) error {
	if !s.header {
		s.header = true
		if err := s.cw.Write(rowCSVHeader); err != nil {
			return err
		}
	}
	if err := s.cw.Write(rowCSVRecord(r)); err != nil {
		return err
	}
	return nil
}

// Flush writes the header (for an empty stream) and flushes buffered rows.
func (s *CSVSink) Flush() error {
	if !s.header {
		s.header = true
		if err := s.cw.Write(rowCSVHeader); err != nil {
			return err
		}
	}
	s.cw.Flush()
	return s.cw.Error()
}

// JSONLSink is a RowSink streaming rows as JSON Lines.
type JSONLSink struct{ enc *json.Encoder }

// NewJSONLSink returns a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{enc: json.NewEncoder(w)} }

// Push implements RowSink.
func (s *JSONLSink) Push(r Row) error { return s.enc.Encode(r) }

// MultiSink fans one row stream out to several sinks, in order.
func MultiSink(sinks ...RowSink) RowSink {
	return SinkFunc(func(r Row) error {
		for _, s := range sinks {
			if err := s.Push(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// Collector is a RowSink accumulating rows in order, plus a mutex so
// callers that share it across streams stay race-free.
type Collector struct {
	mu   sync.Mutex
	rows []Row
}

// Push implements RowSink.
func (c *Collector) Push(r Row) error {
	c.mu.Lock()
	c.rows = append(c.rows, r)
	c.mu.Unlock()
	return nil
}

// Rows returns the collected rows.
func (c *Collector) Rows() []Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows
}
