// Package tenant is the multi-tenant admission layer of the evaluation
// service: named tenants with token-bucket rate limits and queue-depth
// quotas.
//
// A Registry holds the tenants, creating each on first use with the
// registry-wide Limits. Every batch a server accepts for a tenant first
// passes Admit, which charges the tenant's token bucket and queue quota;
// over-limit work is rejected with a *RetryError carrying the time after
// which a retry can succeed, which the HTTP layer surfaces as
// 429 + Retry-After.
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
	// Reason is "rate" (token bucket empty) or "queue" (queue-depth quota
	// reached); it labels the per-tenant rejection counters.
	Reason string
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("tenant: over %s limit, retry after %s", e.Reason, e.After)
}

// queueRetryAfter is the Retry-After estimate for queue-quota rejections:
// the tenant's queue drains at the backend's pace, which the limiter
// cannot observe, so it advertises a modest fixed delay.
const queueRetryAfter = time.Second

// Stats is a point-in-time snapshot of one tenant's admission counters,
// the source of the per-tenant /metrics families.
type Stats struct {
	// Name is the tenant's name ("default" for the anonymous tenant).
	Name string
	// Accepted is the cumulative count of admitted jobs.
	Accepted int64
	// RejectedRate and RejectedQueue count jobs rejected by the token
	// bucket and the queue-depth quota; RejectedOverload counts jobs the
	// backend shed (every healthy shard child's queue deep) — recorded
	// via RecordOverload, since backend admission happens outside this
	// package.
	RejectedRate     int64
	RejectedQueue    int64
	RejectedOverload int64
	// Queued is the jobs currently admitted but not yet released.
	Queued int
}

// Registry holds the tenants of one server, creating each on first use
// with the registry's Limits. Construct with NewRegistry; all methods are
// safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	limits  Limits
	tenants map[string]*Tenant
}

// NewRegistry builds an empty registry whose tenants share the limits.
func NewRegistry(limits Limits) *Registry {
	if limits.now == nil {
		limits.now = time.Now
	}
	return &Registry{limits: limits, tenants: map[string]*Tenant{}}
}

// Tenant returns the named tenant, creating it on first use. The empty
// name aliases "default", so unauthenticated single-tenant callers share
// one namespace instead of each empty header minting a tenant.
func (r *Registry) Tenant(name string) *Tenant {
	if name == "" {
		name = "default"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		t = &Tenant{
			name:   name,
			limits: r.limits,
			tokens: r.limits.burst(),
			last:   r.limits.now(),
		}
		r.tenants[name] = t
	}
	return t
}

// Snapshot returns every tenant's Stats, sorted by name, for metrics
// export and operator reporting.
func (r *Registry) Snapshot() []Stats {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	stats := make([]Stats, len(tenants))
	for i, t := range tenants {
		stats[i] = t.Stats()
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// Tenant is one namespace's admission state. Obtain from Registry.Tenant;
// all methods are safe for concurrent use.
type Tenant struct {
	name   string
	limits Limits

	mu     sync.Mutex
	tokens float64
	last   time.Time
	queued int

	accepted         int64
	rejectedRate     int64
	rejectedQueue    int64
	rejectedOverload int64
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Admit charges jobs against the tenant's quotas. On success it returns a
// release func the caller must invoke when the work finishes (it frees
// the queue slots; calling it more than once is a no-op) and a nil error.
// On rejection it returns a *RetryError saying when a retry can succeed.
// The queue quota is checked before the bucket is charged, so a rejected
// batch never burns tokens.
func (t *Tenant) Admit(jobs int) (release func(), err error) {
	if jobs <= 0 {
		return func() {}, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limits.MaxQueued > 0 && t.queued+jobs > t.limits.MaxQueued {
		t.rejectedQueue += int64(jobs)
		return nil, &RetryError{After: queueRetryAfter, Reason: "queue"}
	}
	if t.limits.RatePerSec > 0 {
		now := t.limits.now()
		burst := t.limits.burst()
		t.tokens = math.Min(burst, t.tokens+now.Sub(t.last).Seconds()*t.limits.RatePerSec)
		t.last = now
		// A batch larger than the burst can never hold a full n tokens;
		// it is admitted at a full bucket and charged in full, so
		// oversized batches are delayed (the deficit refills first), not
		// starved.
		need := math.Min(float64(jobs), burst)
		if t.tokens < need {
			after := time.Duration((need - t.tokens) / t.limits.RatePerSec * float64(time.Second))
			t.rejectedRate += int64(jobs)
			return nil, &RetryError{After: after, Reason: "rate"}
		}
		t.tokens -= float64(jobs)
	}
	t.queued += jobs
	t.accepted += int64(jobs)
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.queued -= jobs
			t.mu.Unlock()
		})
	}, nil
}

// RecordOverload counts jobs rejected by backend admission control (the
// shard shedding load), which happens outside this package but belongs in
// the tenant's rejection ledger.
func (t *Tenant) RecordOverload(jobs int) {
	t.mu.Lock()
	t.rejectedOverload += int64(jobs)
	t.mu.Unlock()
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Name:             t.name,
		Accepted:         t.accepted,
		RejectedRate:     t.rejectedRate,
		RejectedQueue:    t.rejectedQueue,
		RejectedOverload: t.rejectedOverload,
		Queued:           t.queued,
	}
}
