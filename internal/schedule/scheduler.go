package schedule

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// ShardPolicy names a chunk-dispatch policy of the Shard backend. There is
// one, PolicyAdaptive; the type and ShardOptions.Policy are kept because
// perfbench's serve-shard workload sets the field.
type ShardPolicy string

// PolicyAdaptive dispatches each chunk to the child with the lowest
// expected completion time — (in-flight jobs + chunk jobs) divided by the
// child's observed throughput over a sliding window — so a slow or busy
// server naturally receives fewer chunks. Children with no throughput
// samples yet are explored first (least-loaded, then lowest index), so
// every child is measured before the weighting kicks in.
const PolicyAdaptive ShardPolicy = "adaptive"

// Fixed scheduler tuning.
const (
	// defaultQuarantineBase is the first quarantine interval after a child
	// fails a chunk when ShardOptions.QuarantineBase is unset; each further
	// failure doubles it up to quarantineMax, and a successful chunk resets
	// the ladder.
	defaultQuarantineBase = 250 * time.Millisecond
	// throughputWindow is the number of recent chunk completions averaged
	// into a child's observed throughput.
	throughputWindow = 8
	// quarantineMax caps the exponential quarantine backoff.
	quarantineMax = 30 * time.Second
	// hedgeMultiple scales a child's predicted chunk completion time into
	// the hedge delay: a chunk may run this many times longer than
	// predicted before a speculative re-dispatch fires.
	hedgeMultiple = 3.0
)

// ShardOptions tunes the Shard scheduler. The zero value selects adaptive
// dispatch with the default backoff ladder, no admission control and no
// hedging.
type ShardOptions struct {
	// Policy must be empty or PolicyAdaptive.
	Policy ShardPolicy
	// QuarantineBase is the first quarantine interval after a chunk failure
	// (≤ 0 selects 250 ms). Each consecutive failure doubles it up to 30 s;
	// a successful chunk resets the ladder.
	QuarantineBase time.Duration
	// MaxQueueDepth enables admission control (Shard.Admit): when every
	// healthy (non-quarantined) child already has at least this many jobs
	// in flight, new work is shed with an *OverloadError instead of
	// queueing behind the backlog. ≤ 0 disables admission control —
	// Admit always accepts. The bound applies to admission only; chunks
	// already inside a stream still dispatch normally.
	MaxQueueDepth int
	// HedgeAfter enables speculative (hedged) re-dispatch of straggler
	// chunks: when an in-flight chunk has run longer than its hedge delay —
	// max(HedgeAfter, 3 × the dispatching child's predicted completion time
	// from its windowed throughput) — the chunk is also dispatched to
	// another healthy child. The first result wins; the loser is cancelled
	// via context and its rows never reach the sink, so the merged stream
	// stays bit-identical to a Local run. 0 (the default) disables hedging.
	// HedgeAfter is also the floor of the delay, and the whole delay while
	// a child is still unmeasured, so set it comfortably above the fleet's
	// healthy per-chunk latency.
	HedgeAfter time.Duration
	// ChunkSize, when > 0, is the shard's default stream chunk size, used
	// by Stream calls that do not set StreamOptions.ChunkSize themselves
	// (the per-call option wins). A front-door server re-chunking one large
	// client batch sets this so adaptive dispatch and hedging get enough
	// chunks to schedule.
	ChunkSize int
}

// HealthChecker is the optional probe interface of a shard child: a
// quarantined child whose backoff has expired is probed with Health and
// readmitted only when it returns nil. service.Client implements it over
// the server's cheap /healthz endpoint. Children without the interface are
// readmitted on backoff expiry alone.
type HealthChecker interface {
	Health(ctx context.Context) error
}

// Admitter is the optional admission-control interface of a backend: a
// server asks its backend whether a batch of the given size should be
// accepted before committing the response stream. Shard implements it
// (ShardOptions.MaxQueueDepth) by shedding load when every healthy
// child's queue is deep; Cached delegates to its inner backend. A non-nil
// error — normally an *OverloadError — means reject now and retry later.
type Admitter interface {
	Admit(jobs int) error
}

// OverloadError is the Admitter rejection: the backend's queues are deep
// everywhere and new work should back off rather than pile on. The
// service layer surfaces it as HTTP 429 with a Retry-After header.
type OverloadError struct {
	// RetryAfter estimates when admission can succeed: the time for the
	// shallowest healthy queue to drain below the bound at its observed
	// throughput, clamped to a sane range.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("schedule: backend overloaded, retry after %s", e.RetryAfter)
}

// WarmEntry is one row keyed for a content-addressed store, the unit of
// push gossip between servers: Key is CacheKey of the job that produced
// Row.
type WarmEntry struct {
	Key string `json:"key"`
	Row Row    `json:"row"`
}

// RowWarmer is a receiver of pushed rows: service.Client implements it
// over a server's /v1/warm endpoint, and service.Gossiper pushes each
// served batch's keyed rows to its peers through it, so a peer's cache
// answers the same jobs without recomputing. WarmRows reports how many
// entries were stored (a cacheless receiver may store none).
type RowWarmer interface {
	WarmRows(ctx context.Context, entries []WarmEntry) (int, error)
}

// NewWarmEntries keys a batch's rows by CacheKey for cache warming,
// hashing each distinct order of the batch once (see keyMemo).
// jobs and rows must be parallel slices, as returned by a successful
// Backend.Run. Servers use it to build push-gossip payloads.
func NewWarmEntries(jobs []Job, rows []Row) []WarmEntry {
	entries := make([]WarmEntry, len(jobs))
	var km keyMemo
	for i, j := range jobs {
		entries[i] = WarmEntry{Key: km.key(j), Row: rows[i]}
	}
	return entries
}

// ChunkError reports a chunk of the sharded stream that failed on every
// child: each was either tried and failed the chunk, or was quarantined and
// failed its readmission probe. Jobs[First:Last] of the stream (0-based,
// half-open, in source order) are the chunk's jobs, so an operator can
// resume a partially exported grid by re-running from job index First.
type ChunkError struct {
	// First and Last delimit the failed chunk's jobs within the stream:
	// global job indices [First, Last) in source order.
	First, Last int
	// Err joins the per-child failures.
	Err error
}

// Error implements error.
func (e *ChunkError) Error() string {
	return fmt.Sprintf("schedule: shard chunk jobs [%d,%d) failed on all children: %v", e.First, e.Last, e.Err)
}

// Unwrap exposes the joined per-child failures.
func (e *ChunkError) Unwrap() error { return e.Err }

// shardChild is the scheduler's per-child state, guarded by Shard.mu.
type shardChild struct {
	backend Backend
	name    string

	inFlightChunks int
	inFlightJobs   int

	// Sliding throughput window: the last throughputWindow completed
	// chunks' row counts and durations, with running sums.
	samples []tpSample
	sumRows float64
	sumSecs float64

	quarantined bool
	probing     bool
	until       time.Time
	backoff     time.Duration

	chunks       int64
	rows         int64
	failures     int64
	quarantines  int64
	readmissions int64
}

type tpSample struct {
	rows float64
	secs float64
}

// throughput returns the child's windowed rows/sec, or 0 with ok=false when
// no chunk has completed yet.
func (c *shardChild) throughput() (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	return c.sumRows / math.Max(c.sumSecs, 1e-9), true
}

func (c *shardChild) observe(rows int, secs float64) {
	c.samples = append(c.samples, tpSample{rows: float64(rows), secs: secs})
	c.sumRows += float64(rows)
	c.sumSecs += secs
	if len(c.samples) > throughputWindow {
		old := c.samples[0]
		c.samples = c.samples[1:]
		c.sumRows -= old.rows
		c.sumSecs -= old.secs
	}
}

// ShardCounters is a snapshot of the shard's cumulative scheduling
// counters, across all Run and Stream calls.
type ShardCounters struct {
	// Resubmissions counts chunk dispatches beyond each chunk's first
	// attempt: how many times a failed chunk was handed to another child.
	Resubmissions int64
	// Quarantines counts child quarantine entries: a child that fails a
	// chunk is benched for an exponentially growing interval.
	Quarantines int64
	// Readmissions counts quarantine exits: the child's backoff expired and
	// its health probe (if it has one) succeeded.
	Readmissions int64
	// LoadSheds counts Admit rejections: batches turned away because
	// every healthy child's queue held at least MaxQueueDepth jobs.
	LoadSheds int64
	// Hedges counts speculative re-dispatches: chunks additionally handed
	// to a second child because the first ran past its hedge delay
	// (ShardOptions.HedgeAfter).
	Hedges int64
	// HedgeWins counts hedges whose speculative attempt returned first —
	// chunks the fleet finished early because a straggler was raced and
	// lost. Hedges − HedgeWins is how often the original dispatch still
	// won.
	HedgeWins int64
}

// ShardChildStats is a snapshot of one child's scheduler state, for
// operator reporting.
type ShardChildStats struct {
	// Name is the child backend's Capabilities name.
	Name string
	// Chunks and Rows count the chunks the child completed successfully and
	// the rows they produced.
	Chunks int64
	Rows   int64
	// Failures counts chunk dispatches the child failed.
	Failures int64
	// Quarantines and Readmissions count the child's bench entries/exits.
	Quarantines  int64
	Readmissions int64
	// Quarantined reports whether the child is benched right now.
	Quarantined bool
	// RowsPerSec is the windowed observed throughput (0 until the child
	// completes its first chunk).
	RowsPerSec float64
}

// probeTimeout bounds one health probe, so a black-holed server cannot
// hold a readmission check (and with it a chunk waiting on the probe's
// outcome) hostage.
const probeTimeout = 5 * time.Second

// pickScan is one pass over a chunk's untried children under s.mu: the
// child it charged, if any, and where the others stand.
type pickScan struct {
	// idx is the available child chosen and charged for the chunk, or -1.
	idx int
	// due are quarantined children whose backoff expired; the scan marked
	// them probing, so the caller must probe each.
	due []int
	// probing reports an untried child mid-probe by another chunk.
	probing bool
	// wait is the earliest future due time among the benched children
	// (zero when none).
	wait time.Time
	// remaining reports whether any untried child exists at all.
	remaining bool
}

// scan sorts the untried children into available, due, probing and
// waiting, marks the due ones probing, and charges the chosen available
// child with a chunk of n jobs. It is the one place the quarantine rules
// are read; pick and tryPick act on its result.
func (s *Shard) scan(tried map[int]bool, n int) pickScan {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	sc := pickScan{idx: -1}
	var avail []int
	for i := range s.children {
		if tried[i] {
			continue
		}
		sc.remaining = true
		c := &s.children[i]
		switch {
		case !c.quarantined:
			avail = append(avail, i)
		case c.probing:
			sc.probing = true
		case !now.Before(c.until):
			c.probing = true
			sc.due = append(sc.due, i)
		case sc.wait.IsZero() || c.until.Before(sc.wait):
			sc.wait = c.until
		}
	}
	if len(avail) > 0 {
		sc.idx = s.choose(avail, n)
		s.children[sc.idx].inFlightChunks++
		s.children[sc.idx].inFlightJobs += n
	}
	return sc
}

// pick selects and charges a child for a chunk of n jobs. Children in tried
// are excluded. Quarantined children whose backoff expired are probed — in
// the background when another child is available (dispatch never stalls on
// a probe), synchronously when the chunk has no one else to run on — and
// readmitted or re-benched by the outcome. When every untried child is
// benched with a future due time or mid-probe, pick waits. It returns -1
// once every child has been tried — run or probe — and failed, or the
// context is done.
func (s *Shard) pick(ctx context.Context, tried map[int]bool, n int) int {
	for {
		sc := s.scan(tried, n)
		if sc.idx >= 0 {
			// Probes ride in the background: a due child's recovery must not
			// delay dispatching to a child that is ready right now. The probe
			// cannot mark tried (that map belongs to this chunk's loop);
			// failures just re-bench the child.
			for _, i := range sc.due {
				go s.probeOne(ctx, i, nil)
			}
			return sc.idx
		}
		switch {
		case len(sc.due) > 0:
			// No one else to run on: probe synchronously — so a readmitted
			// child can take this chunk, and a failed probe marks the child
			// tried (probed at most once per chunk) — but concurrently, so
			// one black-holed child's probeTimeout doesn't delay dispatch to
			// a sibling an earlier probe would have readmitted. tried is
			// only written under s.mu and only read here after Wait.
			var wg sync.WaitGroup
			for _, i := range sc.due {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					s.probeOne(ctx, i, tried)
				}(i)
			}
			wg.Wait()
		case sc.probing:
			// Another goroutine's probe may readmit a child; poll briefly.
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return -1
			}
		case sc.wait.IsZero():
			return -1 // every child tried and failed
		default:
			select {
			case <-time.After(time.Until(sc.wait)):
			case <-ctx.Done():
				return -1
			}
		}
		if ctx.Err() != nil {
			return -1
		}
	}
}

// tryPick is pick's non-blocking variant, used for hedge dispatch: it
// charges and returns an available untried child if one exists right now,
// kicking due-quarantined children's readmission probes off in the
// background, but never waits — a hedge is an optimization, and stalling
// the chunk's control loop to find a hedge target would defeat it. idx is
// -1 when no child is available; retry then reports whether any untried
// child exists at all (quarantined or mid-probe), i.e. whether re-arming
// the hedge timer could ever find one.
func (s *Shard) tryPick(ctx context.Context, tried map[int]bool, n int) (idx int, retry bool) {
	sc := s.scan(tried, n)
	for _, i := range sc.due {
		go s.probeOne(ctx, i, nil)
	}
	return sc.idx, sc.remaining
}

// hedgeDelay returns how long child i may hold a chunk of n jobs before a
// hedge fires: hedgeMultiple × the completion time predicted from the
// child's windowed throughput, floored by HedgeAfter (which alone applies
// while the child is unmeasured).
func (s *Shard) hedgeDelay(i, n int) time.Duration {
	d := s.opt.HedgeAfter
	s.mu.Lock()
	if tp, ok := s.children[i].throughput(); ok && tp > 0 {
		if pred := time.Duration(hedgeMultiple * float64(n) / tp * float64(time.Second)); pred > d {
			d = pred
		}
	}
	s.mu.Unlock()
	return d
}

// choose picks among the available (non-quarantined, untried) children,
// under s.mu: the lowest expected completion time, exploring unmeasured
// children first. A child whose window holds only hedge losses has zero
// throughput and an infinite score; it is still chosen when it is the only
// one available.
func (s *Shard) choose(avail []int, n int) int {
	best, bestScore := avail[0], math.Inf(1)
	for _, i := range avail {
		c := &s.children[i]
		var score float64
		if tp, ok := c.throughput(); ok {
			score = (float64(c.inFlightJobs) + float64(n)) / tp
		} else {
			// Unmeasured: explore before any measured child, least-loaded
			// first so concurrent chunks don't dogpile one unknown.
			score = -1 + float64(c.inFlightChunks)*1e-6
		}
		if score < bestScore || (score == bestScore && c.inFlightChunks < s.children[best].inFlightChunks) {
			best, bestScore = i, score
		}
	}
	return best
}

// probeOne health-checks one quarantined child whose backoff expired
// (bounded by probeTimeout): a nil Health (or no HealthChecker interface)
// readmits the child; a failing probe re-benches it with a doubled backoff
// and, when tried is non-nil (synchronous probes owned by one chunk), marks
// it tried so a dead child is probed at most once per chunk. The caller
// must have set the child's probing flag under s.mu.
func (s *Shard) probeOne(ctx context.Context, i int, tried map[int]bool) {
	var err error
	if hc, ok := s.children[i].backend.(HealthChecker); ok {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err = hc.Health(pctx)
		cancel()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.children[i]
	c.probing = false
	if err != nil && ctx.Err() != nil {
		// Stream teardown, not a verdict: the probe was cancelled, so leave
		// the child's bench state exactly as it was.
		return
	}
	if err == nil {
		if c.quarantined {
			c.quarantined = false
			c.readmissions++
			s.readmissions.Add(1)
		}
		return
	}
	s.bench(c)
	if tried != nil {
		tried[i] = true
	}
}

// bench advances a child one rung up the backoff ladder — QuarantineBase
// initially, doubling up to quarantineMax — and sets its due time. Called
// with s.mu held, from both the chunk-failure and failed-probe paths.
func (s *Shard) bench(c *shardChild) {
	if c.backoff <= 0 {
		c.backoff = s.opt.QuarantineBase
	} else {
		c.backoff = min(c.backoff*2, quarantineMax)
	}
	c.until = time.Now().Add(c.backoff)
}

// quarantine benches child i after a failed chunk, doubling its backoff up
// to quarantineMax.
func (s *Shard) quarantine(i int) {
	s.mu.Lock()
	c := &s.children[i]
	c.failures++
	c.quarantined = true
	s.bench(c)
	c.quarantines++
	s.quarantines.Add(1)
	s.mu.Unlock()
}

// attemptOutcome classifies how one chunk dispatch ended, for complete's
// scheduler bookkeeping.
type attemptOutcome int

const (
	// attemptOK: the child returned the chunk's rows.
	attemptOK attemptOutcome = iota
	// attemptHedgeLoss: the attempt was cancelled because a hedged sibling
	// won the chunk — the child is healthy but slow.
	attemptHedgeLoss
	// attemptFailed: the child failed the chunk, or the stream was torn
	// down.
	attemptFailed
)

// complete releases child i's in-flight charge for a chunk of n jobs and
// updates the scheduler's view of the child. attemptOK records a throughput
// sample and resets the backoff ladder — unless the child is benched right
// now: a straggler chunk dispatched before the quarantine must not zero the
// ladder of a child that has since started failing. attemptHedgeLoss
// records a zero-row sample over the straggler's wall time: the chunk's
// rows were credited to the winner, and what the loser contributes is
// evidence of slowness, dragging its windowed throughput down so adaptive
// dispatch steers the next chunks away without benching a child that is
// merely slow. attemptFailed only releases the charge; quarantine handles
// the rest.
func (s *Shard) complete(i, n int, dur time.Duration, outcome attemptOutcome) {
	s.mu.Lock()
	c := &s.children[i]
	c.inFlightChunks--
	c.inFlightJobs -= n
	switch outcome {
	case attemptOK:
		c.chunks++
		c.rows += int64(n)
		if !c.quarantined {
			c.backoff = 0
		}
		c.observe(n, dur.Seconds())
	case attemptHedgeLoss:
		c.observe(0, dur.Seconds())
	}
	s.mu.Unlock()
}
