// Package tenant is the multi-tenant admission layer of the evaluation
// service: named tenants with token-bucket rate limits and queue-depth
// quotas.
//
// A Registry holds the tenants, creating each on first use with the
// registry-wide Limits. Every batch a server accepts for a tenant first
// passes Registry.Admit, which charges the tenant's token bucket and queue
// quota; over-limit work is rejected with a *RetryError carrying the time
// after which a retry can succeed, which the HTTP layer surfaces as
// 429 + Retry-After.
//
// The registry tracks at most maxTenants tenants by name. Past the bound
// it drops the idle ones — nothing queued and a full bucket, so a
// returning tenant is admitted exactly like a new one — and folds their
// counters into one aggregate Stats entry, so nothing is lost from the
// ledger. When every tracked tenant is busy, a new tenant's batch is
// rejected (reason "full") until one goes idle.
//
// The package deliberately knows nothing about HTTP, trees or the schedule
// engine: it depends only on the standard library, and the service layer
// maps its verdicts onto status codes.
package tenant

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultBurst is the token-bucket capacity used when Limits.Burst is
// unset and the rate alone does not imply a larger one. 64 matches the
// evaluation engine's default chunk size (schedule.DefaultChunkSize), so a
// default-chunked stream is never rejected merely for arriving as one
// chunk; the value is a literal because this package must not depend on
// the schedule engine.
const DefaultBurst = 64

// Limits is the per-tenant quota configuration, applied uniformly to
// every tenant of a Registry. The zero value disables all limits.
type Limits struct {
	// RatePerSec is the token-bucket refill rate in jobs per second;
	// ≤ 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity in jobs. ≤ 0 selects
	// max(RatePerSec, DefaultBurst). A batch larger than the burst is
	// admitted once the bucket is full and charged in full (the bucket
	// goes negative), so oversized batches are delayed, not starved.
	Burst int
	// MaxQueued bounds the jobs a tenant may have admitted-but-unfinished
	// at once; ≤ 0 is unbounded. Work beyond the bound is rejected until
	// earlier batches release their slots.
	MaxQueued int
	// now is the test hook for the bucket clock; nil selects time.Now.
	now func() time.Time
}

// burst resolves the effective bucket capacity.
func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	return math.Max(l.RatePerSec, DefaultBurst)
}

// RetryError is the admission verdict for over-limit work: the request
// was rejected, and a retry after After may succeed. The service layer
// maps it to HTTP 429 with a Retry-After header.
type RetryError struct {
	// After is the duration after which a retry can succeed: the bucket
	// refill time for rate rejections, a fixed estimate for queue ones.
	After time.Duration
	// Reason is "rate" (token bucket empty), "queue" (queue-depth quota
	// reached) or "full" (a new tenant while the registry holds maxTenants
	// busy ones); it labels the per-tenant rejection counters.
	Reason string
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("tenant: over %s limit, retry after %s", e.Reason, e.After)
}

// queueRetryAfter is the Retry-After estimate for queue-quota and
// full-registry rejections: queues drain at the backend's pace, which the
// limiter cannot observe, so it advertises a modest fixed delay.
const queueRetryAfter = time.Second

// maxTenants bounds the tenants a Registry tracks by name.
const maxTenants = 1024

// Canonical returns the registry name of a tenant header value: the empty
// name aliases "default", so unauthenticated single-tenant callers share
// one namespace instead of each empty header minting a tenant.
func Canonical(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// Stats is a point-in-time snapshot of one tenant's admission counters,
// the source of the per-tenant /metrics families.
type Stats struct {
	// Name is the tenant's name ("default" for the anonymous tenant). The
	// aggregate of the tenants dropped from the registry has the empty
	// name.
	Name string
	// Accepted is the cumulative count of admitted jobs.
	Accepted int64
	// RejectedRate and RejectedQueue count jobs rejected by the token
	// bucket and the queue-depth quota; RejectedOverload counts jobs the
	// backend shed (every healthy shard child's queue deep) — recorded
	// via RecordOverload, since backend admission happens outside this
	// package. RejectedFull, nonzero only in the aggregate, counts jobs
	// of new tenants turned away while the registry was full.
	RejectedRate     int64
	RejectedQueue    int64
	RejectedOverload int64
	RejectedFull     int64
	// Queued is the jobs currently admitted but not yet released.
	Queued int
}

// add folds the counters of an idle tenant, which has nothing queued and
// no RejectedFull, into s.
func (s *Stats) add(o Stats) {
	s.Accepted += o.Accepted
	s.RejectedRate += o.RejectedRate
	s.RejectedQueue += o.RejectedQueue
	s.RejectedOverload += o.RejectedOverload
}

// Registry holds the tenants of one server, creating each on first use
// with the registry's Limits and dropping idle ones past maxTenants.
// Construct with NewRegistry; all methods are safe for concurrent use.
// One lock guards every tenant, so a tenant is resolved and charged in
// one step and no caller ever holds a tenant the registry has dropped.
type Registry struct {
	mu      sync.Mutex
	limits  Limits
	tenants map[string]*entry
	// folded sums the counters of the dropped tenants and the rejections
	// of tenants the full registry could not take.
	folded Stats
}

// entry is one tenant's admission state, guarded by Registry.mu.
type entry struct {
	stats  Stats // Name, counters and Queued
	tokens float64
	last   time.Time
}

// NewRegistry builds an empty registry whose tenants share the limits.
func NewRegistry(limits Limits) *Registry {
	if limits.now == nil {
		limits.now = time.Now
	}
	return &Registry{limits: limits, tenants: map[string]*entry{}}
}

// lookup returns the named tenant, creating it on first use, under r.mu.
// At the bound it first drops every idle tenant; it returns nil when the
// registry is still full.
func (r *Registry) lookup(name string, now time.Time) *entry {
	name = Canonical(name)
	if e, ok := r.tenants[name]; ok {
		return e
	}
	if len(r.tenants) >= maxTenants {
		for n, e := range r.tenants {
			if r.idle(e, now) {
				r.folded.add(e.stats)
				delete(r.tenants, n)
			}
		}
		if len(r.tenants) >= maxTenants {
			return nil
		}
	}
	e := &entry{stats: Stats{Name: name}, tokens: r.limits.burst(), last: now}
	r.tenants[name] = e
	return e
}

// idle reports whether dropping e changes no admission decision: nothing
// queued, and a bucket that has refilled to its burst by now.
func (r *Registry) idle(e *entry, now time.Time) bool {
	if e.stats.Queued > 0 {
		return false
	}
	return r.limits.RatePerSec <= 0 ||
		e.tokens+now.Sub(e.last).Seconds()*r.limits.RatePerSec >= r.limits.burst()
}

// Admit resolves the named tenant and charges jobs against its quotas. On
// success it returns a release func the caller must invoke when the work
// finishes (it frees the queue slots; calling it more than once is a
// no-op) and a nil error. On rejection it returns a *RetryError saying
// when a retry can succeed. The queue quota is checked before the bucket
// is charged, so a rejected batch never burns tokens.
func (r *Registry) Admit(name string, jobs int) (release func(), err error) {
	if jobs <= 0 {
		return func() {}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.limits.now()
	e := r.lookup(name, now)
	if e == nil {
		r.folded.RejectedFull += int64(jobs)
		return nil, &RetryError{After: queueRetryAfter, Reason: "full"}
	}
	if r.limits.MaxQueued > 0 && e.stats.Queued+jobs > r.limits.MaxQueued {
		e.stats.RejectedQueue += int64(jobs)
		return nil, &RetryError{After: queueRetryAfter, Reason: "queue"}
	}
	if r.limits.RatePerSec > 0 {
		burst := r.limits.burst()
		e.tokens = math.Min(burst, e.tokens+now.Sub(e.last).Seconds()*r.limits.RatePerSec)
		e.last = now
		// A batch larger than the burst can never hold a full n tokens;
		// it is admitted at a full bucket and charged in full, so
		// oversized batches are delayed (the deficit refills first), not
		// starved.
		need := math.Min(float64(jobs), burst)
		if e.tokens < need {
			after := time.Duration((need - e.tokens) / r.limits.RatePerSec * float64(time.Second))
			e.stats.RejectedRate += int64(jobs)
			return nil, &RetryError{After: after, Reason: "rate"}
		}
		e.tokens -= float64(jobs)
	}
	e.stats.Queued += jobs
	e.stats.Accepted += int64(jobs)
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			e.stats.Queued -= jobs
			r.mu.Unlock()
		})
	}, nil
}

// RecordOverload counts jobs of the named tenant rejected by backend
// admission control (the shard shedding load), which happens outside this
// package but belongs in the tenant's rejection ledger.
func (r *Registry) RecordOverload(name string, jobs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, r.limits.now()); e != nil {
		e.stats.RejectedOverload += int64(jobs)
	} else {
		r.folded.RejectedOverload += int64(jobs)
	}
}

// Snapshot returns every tracked tenant's Stats, sorted by name, for
// metrics export and operator reporting. Once any tenant has been dropped
// or turned away, the aggregate entry (empty name) comes first.
func (r *Registry) Snapshot() []Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	stats := make([]Stats, 0, len(r.tenants)+1)
	if r.folded != (Stats{}) {
		stats = append(stats, r.folded)
	}
	for _, e := range r.tenants {
		stats = append(stats, e.stats)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}
