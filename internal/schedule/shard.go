package schedule

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Shard fans one job stream out across several child backends — typically
// service.Client remotes speaking to distinct scheduled servers. The stream
// is cut into chunks (StreamOptions.ChunkSize); each chunk is dispatched to
// the child with the lowest expected completion time (PolicyAdaptive),
// which weights dispatch by each child's observed throughput and in-flight
// load so a slow or busy server naturally receives fewer chunks, with at
// most StreamOptions.InFlight chunks in flight (default 2 × children).
// Chunk results merge into the sink in job order, so a sharded grid is
// bit-identical to a Local run up to the Seconds column.
//
// A chunk whose child fails is resubmitted to another child, and the failed
// child is quarantined: benched for an exponentially growing interval
// (ShardOptions.QuarantineBase doubling up to 30 s), then probed —
// via HealthChecker when the child implements it, on backoff expiry alone
// otherwise — and readmitted when it responds. Transient child failures (a
// server restarting, a dropped connection) therefore cost a resubmission
// and a quarantine, not the batch. Only when every child has either failed
// the chunk or failed its readmission probe does the stream fail, with a
// *ChunkError naming the chunk's job index range so the run can be resumed.
// Deterministic job errors still fail after one round, since every child
// rejects them the same way.
//
// With ShardOptions.HedgeAfter set, a chunk held by a straggling child is
// speculatively re-dispatched: once the chunk runs past its hedge delay
// (the larger of HedgeAfter and 3 × the child's predicted completion
// time), a second healthy child races it. The first result
// wins, the loser's context is cancelled, and only the winner's rows reach
// the sink — a child that silently degrades to 10× slow mid-grid costs one
// hedge delay, not a 10× chunk. Hedges and their wins are counted
// (Counters().Hedges / HedgeWins) separately from failure-driven
// resubmissions.
//
// Construct with NewShardWith.
type Shard struct {
	mu       sync.Mutex
	children []shardChild
	opt      ShardOptions

	resubmits    atomic.Int64
	quarantines  atomic.Int64
	readmissions atomic.Int64
	sheds        atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
}

// NewShardWith builds a shard over the child backends with the given
// scheduler options. Any Policy but empty or PolicyAdaptive is refused.
func NewShardWith(opt ShardOptions, children ...Backend) (*Shard, error) {
	if len(children) == 0 {
		return nil, errors.New("schedule: shard needs at least one child backend")
	}
	if opt.Policy != "" && opt.Policy != PolicyAdaptive {
		return nil, fmt.Errorf("schedule: unknown shard policy %q (only %q)", opt.Policy, PolicyAdaptive)
	}
	if opt.QuarantineBase <= 0 {
		opt.QuarantineBase = defaultQuarantineBase
	}
	s := &Shard{opt: opt}
	for i, c := range children {
		if c == nil {
			return nil, fmt.Errorf("schedule: shard child %d is nil", i)
		}
		s.children = append(s.children, shardChild{backend: c, name: c.Capabilities().Name})
	}
	return s, nil
}

// Capabilities implements Backend: the shard is remote or cached when any
// child is.
func (s *Shard) Capabilities() Capabilities {
	var names []string
	caps := Capabilities{}
	for i := range s.children {
		cc := s.children[i].backend.Capabilities()
		names = append(names, cc.Name)
		caps.Remote = caps.Remote || cc.Remote
		caps.Cached = caps.Cached || cc.Cached
	}
	caps.Name = "shard(" + strings.Join(names, ",") + ")"
	return caps
}

// Counters returns a snapshot of the shard's cumulative scheduling
// counters.
func (s *Shard) Counters() ShardCounters {
	return ShardCounters{
		Resubmissions: s.resubmits.Load(),
		Quarantines:   s.quarantines.Load(),
		Readmissions:  s.readmissions.Load(),
		LoadSheds:     s.sheds.Load(),
		Hedges:        s.hedges.Load(),
		HedgeWins:     s.hedgeWins.Load(),
	}
}

// ChildStats returns a per-child snapshot of the scheduler state, in child
// order.
func (s *Shard) ChildStats() []ShardChildStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := make([]ShardChildStats, len(s.children))
	for i := range s.children {
		c := &s.children[i]
		tp, _ := c.throughput()
		stats[i] = ShardChildStats{
			Name:         c.name,
			Chunks:       c.chunks,
			Rows:         c.rows,
			Failures:     c.failures,
			Quarantines:  c.quarantines,
			Readmissions: c.readmissions,
			Quarantined:  c.quarantined,
			RowsPerSec:   tp,
		}
	}
	return stats
}

// Admission-control clamps on the OverloadError.RetryAfter estimate: the
// drain-time guess divides by a windowed throughput that may be tiny or
// absent early on, so the advertised backoff is kept within a range that
// neither hammers an overloaded fleet nor strands a recovering one.
const (
	minShedRetryAfter = time.Second
	maxShedRetryAfter = 30 * time.Second
)

// Admit implements Admitter when ShardOptions.MaxQueueDepth is set: the
// batch is accepted while any healthy (non-quarantined) child has fewer
// than MaxQueueDepth jobs in flight, and shed with an *OverloadError
// otherwise — including when every child is quarantined, since work
// admitted then could only queue behind the bench. The RetryAfter
// estimate is the shallowest healthy queue's drain time at its observed
// throughput. With MaxQueueDepth ≤ 0 every batch is admitted.
func (s *Shard) Admit(jobs int) error {
	if s.opt.MaxQueueDepth <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	drain := time.Duration(-1)
	for i := range s.children {
		c := &s.children[i]
		if c.quarantined {
			continue
		}
		if c.inFlightJobs < s.opt.MaxQueueDepth {
			return nil
		}
		// Excess over where admission reopens, drained at the child's pace.
		excess := float64(c.inFlightJobs - s.opt.MaxQueueDepth + 1)
		if tp, ok := c.throughput(); ok && tp > 0 {
			if d := time.Duration(excess / tp * float64(time.Second)); drain < 0 || d < drain {
				drain = d
			}
		}
	}
	if drain < minShedRetryAfter {
		drain = minShedRetryAfter
	}
	if drain > maxShedRetryAfter {
		drain = maxShedRetryAfter
	}
	s.sheds.Add(1)
	return &OverloadError{RetryAfter: drain}
}

// Stream implements Backend: chunks fan out across the children under
// adaptive dispatch with bounded in-flight, failed chunks are
// resubmitted to other children (the failing child is quarantined and later
// readmitted), and the order-preserving merge keeps the sink bit-identical
// to a Local run.
func (s *Shard) Stream(ctx context.Context, src JobSource, sink RowSink, opt StreamOptions) error {
	if opt.ChunkSize <= 0 && s.opt.ChunkSize > 0 {
		opt.ChunkSize = s.opt.ChunkSize
	}
	chunkSize, inFlight := opt.chunking(2 * len(s.children))
	return streamChunks(ctx, src, sink, chunkSize, inFlight, func(ctx context.Context, start int, jobs []Job) ([]Row, error) {
		return s.runChunk(ctx, start, jobs, opt.Workers)
	})
}

// Run implements Backend as the shim over Stream (RunViaStream): the jobs
// slice streams through the sharded fan-out and the rows collect in job
// order.
func (s *Shard) Run(ctx context.Context, jobs []Job, opt BatchOptions) ([]Row, error) {
	return RunViaStream(ctx, s, jobs, opt)
}

// attemptResult is one chunk dispatch's outcome, delivered to runChunk's
// control loop.
type attemptResult struct {
	idx   int
	rows  []Row
	err   error
	hedge bool
}

// runChunk evaluates one chunk (stream job indices [start, start+len(jobs))),
// dispatching to scheduler-picked children until one succeeds. Each child is
// tried at most once per chunk; a failing child is quarantined and the
// chunk resubmitted elsewhere. With hedging enabled (ShardOptions.
// HedgeAfter), an attempt that runs past its hedge delay is raced by a
// speculative dispatch to another healthy child: the first result wins and
// every other attempt is cancelled, so exactly one attempt's rows are
// returned — the merge never sees duplicates. When every child has been
// tried — run or readmission probe — and failed, the chunk fails with a
// *ChunkError naming the job index range.
func (s *Shard) runChunk(ctx context.Context, start int, jobs []Job, workers int) ([]Row, error) {
	tried := make(map[int]bool, len(s.children))
	var errs []error
	chunkErr := func() error {
		joined := errors.Join(errs...)
		if joined == nil {
			// Every child was exhausted by failed readmission probes rather
			// than by running this chunk; say so instead of wrapping nil.
			joined = errors.New("every child is quarantined and failed its readmission probe")
		}
		return &ChunkError{First: start, Last: start + len(jobs), Err: joined}
	}

	// Each child runs at most once per chunk, so the buffer guarantees no
	// attempt goroutine ever blocks sending its result — a straggler that
	// loses the race finishes and exits even after runChunk has returned.
	results := make(chan attemptResult, len(s.children))
	running, dispatches := 0, 0
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(idx int, hedge bool) {
		tried[idx] = true
		if hedge {
			s.hedges.Add(1)
		} else if dispatches > 0 {
			s.resubmits.Add(1)
		}
		dispatches++
		running++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		child := s.children[idx].backend
		// The stream engine recycles the chunk's pooled jobs buffer the
		// moment runChunk returns, while a cancelled straggler may still be
		// reading it; every attempt therefore gets its own copy.
		jobsCopy := append([]Job(nil), jobs...)
		t0 := time.Now()
		go func() {
			rows, err := child.Run(actx, jobsCopy, BatchOptions{Workers: workers})
			outcome := attemptFailed
			switch {
			case err == nil:
				outcome = attemptOK
			case actx.Err() != nil && ctx.Err() == nil:
				outcome = attemptHedgeLoss
			}
			s.complete(idx, len(jobsCopy), time.Since(t0), outcome)
			results <- attemptResult{idx: idx, rows: rows, err: err, hedge: hedge}
		}()
	}
	// finish drains the still-running losers' results in the background so
	// their row slices recirculate through the stream engine's pool.
	finish := func(pending int) {
		if pending <= 0 {
			return
		}
		go func() {
			for i := 0; i < pending; i++ {
				if res := <-results; res.err == nil {
					putRowSlice(res.rows)
				}
			}
		}()
	}

	// The hedge timer is re-created per arm (never Reset) so a late fire
	// can't race a re-arm; hedgeC is nil — and the select case dormant —
	// while hedging is off or exhausted.
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	stopHedge := func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
			hedgeTimer, hedgeC = nil, nil
		}
	}
	armHedge := func(d time.Duration) {
		stopHedge()
		hedgeTimer = time.NewTimer(d)
		hedgeC = hedgeTimer.C
	}
	defer stopHedge()

	for {
		if running == 0 {
			idx := s.pick(ctx, tried, len(jobs))
			if idx < 0 {
				if err := ctx.Err(); err != nil {
					// The stream is being torn down; this chunk was aborted,
					// not rejected fleet-wide, so surface the cancellation
					// rather than a misleading all-children ChunkError.
					return nil, err
				}
				return nil, chunkErr()
			}
			launch(idx, false)
			if s.opt.HedgeAfter > 0 {
				armHedge(s.hedgeDelay(idx, len(jobs)))
			}
		}
		select {
		case res := <-results:
			running--
			if res.err == nil {
				if res.hedge {
					s.hedgeWins.Add(1)
				}
				// The deferred cancels stop the losers.
				finish(running)
				return res.rows, nil
			}
			if ctx.Err() != nil {
				// The attempt's failure is (or is indistinguishable from)
				// the teardown: don't bench a possibly healthy child or
				// inflate its failure counters, and report the abort as
				// what it is.
				finish(running)
				return nil, ctx.Err()
			}
			errs = append(errs, fmt.Errorf("%s: %w", s.children[res.idx].name, res.err))
			s.quarantine(res.idx)
		case <-hedgeC:
			hedgeTimer, hedgeC = nil, nil
			idx, retry := s.tryPick(ctx, tried, len(jobs))
			if idx >= 0 {
				launch(idx, true)
				armHedge(s.hedgeDelay(idx, len(jobs)))
			} else if retry {
				// Untried children exist but are benched or mid-probe right
				// now; check back after another hedge interval.
				armHedge(s.opt.HedgeAfter)
			}
		}
	}
}
