package schedule

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Capabilities is the metadata a backend reports about itself, used by
// callers to pick output wording and by wiring code to sanity-check a
// configuration (e.g. refusing to nest two caches).
type Capabilities struct {
	// Name identifies the backend in logs and error messages, e.g.
	// "local", "cached(local)", "http".
	Name string
	// Remote reports that jobs leave the process: trees are serialized and
	// the work runs elsewhere, so job slices must not rely on shared memory.
	Remote bool
	// Cached reports that the backend may satisfy jobs from a store without
	// executing any algorithm.
	Cached bool
}

// Backend evaluates jobs and produces one row per job, in job order.
// Implementations must be deterministic modulo the Seconds column: given
// the same jobs, every backend returns bit-identical rows.
//
// Run is the materialized form: the batch is a slice, the rows come back as
// a slice, and the first failing job fails the batch. Stream is the same
// contract over iterators — jobs are pulled from a JobSource as capacity
// frees up and rows are pushed to a RowSink in job order — so a grid larger
// than memory can flow through with peak resident state bounded by
// StreamOptions.ChunkSize × InFlight. Either method may be the native one:
// batch-first backends get Stream via StreamChunked, stream-first backends
// (Shard) get Run via RunViaStream.
//
// Four implementations ship with the repository: Local (the in-process
// worker-pool evaluator), Cached (a content-addressed decorator over any
// backend, see NewCached), Shard (a fan-out over several child backends,
// see NewShard) and the HTTP client of internal/service speaking to a
// cmd/scheduled evaluation server.
type Backend interface {
	Capabilities() Capabilities
	Run(ctx context.Context, jobs []Job, opt BatchOptions) ([]Row, error)
	Stream(ctx context.Context, src JobSource, sink RowSink, opt StreamOptions) error
}

// Local is the in-process backend: it evaluates every job concurrently on
// a bounded worker pool against the process-wide algorithm registry. The
// zero value is ready to use.
type Local struct{}

// Capabilities implements Backend.
func (Local) Capabilities() Capabilities { return Capabilities{Name: "local"} }

// Run implements Backend. Algorithms are deterministic and jobs are
// independent, so the rows are bit-identical to a sequential run; only the
// Seconds column varies. The first failing job cancels the rest and is the
// error returned. The returned slice is drawn from the stream engine's row
// pool, so the streaming merge can recycle it after the sink consumes the
// chunk; callers that keep the slice simply never return it to the pool.
func (Local) Run(ctx context.Context, jobs []Job, opt BatchOptions) ([]Row, error) {
	n := len(jobs)
	rows := getRowSlice(n)
	if n == 0 {
		return rows, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Every error stored in firstErr comes from the one fmt.Errorf below,
	// so the atomic.Value never sees two concrete types.
	var (
		next     atomic.Int64
		firstErr atomic.Value
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				row, err := runJob(jobs[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("schedule: job %s/%s: %w", jobs[i].Instance, jobs[i].Algorithm, err))
					cancel()
					return
				}
				rows[i] = row
				if opt.OnRow != nil || opt.OnRowIndexed != nil {
					mu.Lock()
					if opt.OnRow != nil {
						opt.OnRow(row)
					}
					if opt.OnRowIndexed != nil {
						opt.OnRowIndexed(i, row)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Stream implements Backend by chunking the source through Run: chunks
// evaluate concurrently (each with its own worker pool) and merge into the
// sink in job order.
func (l Local) Stream(ctx context.Context, src JobSource, sink RowSink, opt StreamOptions) error {
	return StreamChunked(ctx, l.Run, src, sink, opt)
}
