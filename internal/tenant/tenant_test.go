package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for the token bucket.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestRegistry(l Limits) (*Registry, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	l.now = clk.Now
	return NewRegistry(l), clk
}

// statsOf returns the named tenant's entry of the registry's snapshot.
func statsOf(t *testing.T, r *Registry, name string) Stats {
	t.Helper()
	for _, st := range r.Snapshot() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("tenant %q not in the snapshot", name)
	return Stats{}
}

func TestTokenBucketRefill(t *testing.T) {
	r, clk := newTestRegistry(Limits{RatePerSec: 10, Burst: 20})
	// The bucket starts full: 20 tokens admit two batches of 10.
	for i := 0; i < 2; i++ {
		release, err := r.Admit("a", 10)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	// Empty bucket: a batch of 5 needs 0.5s of refill.
	_, err := r.Admit("a", 5)
	var re *RetryError
	if !errors.As(err, &re) || re.Reason != "rate" {
		t.Fatalf("want rate RetryError, got %v", err)
	}
	if re.After <= 0 || re.After > 500*time.Millisecond {
		t.Fatalf("retry-after %v outside (0, 500ms]", re.After)
	}
	clk.Advance(re.After)
	release, err := r.Admit("a", 5)
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	release()
	if st := statsOf(t, r, "a"); st.Accepted != 25 || st.RejectedRate != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOversizedBatchDelayedNotStarved(t *testing.T) {
	r, clk := newTestRegistry(Limits{RatePerSec: 100, Burst: 10})
	// 30 jobs > burst 10: admitted at a full bucket, charged in full.
	release, err := r.Admit("a", 30)
	if err != nil {
		t.Fatalf("oversized admit: %v", err)
	}
	release()
	// Deficit of 20 plus the 10-token need: 0.3s to admit again.
	if _, err := r.Admit("a", 30); err == nil {
		t.Fatal("second oversized admit should hit the deficit")
	}
	clk.Advance(300 * time.Millisecond)
	if release, err = r.Admit("a", 30); err != nil {
		t.Fatalf("admit after deficit refill: %v", err)
	}
	release()
}

func TestQueueQuota(t *testing.T) {
	r, _ := newTestRegistry(Limits{MaxQueued: 10})
	rel1, err := r.Admit("a", 6)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := r.Admit("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Admit("a", 1)
	var re *RetryError
	if !errors.As(err, &re) || re.Reason != "queue" {
		t.Fatalf("want queue RetryError, got %v", err)
	}
	if st := statsOf(t, r, "a"); st.Queued != 10 || st.RejectedQueue != 1 {
		t.Fatalf("stats: %+v", st)
	}
	rel1()
	rel1() // double release must not free extra slots
	if st := statsOf(t, r, "a"); st.Queued != 4 {
		t.Fatalf("queued after release: %+v", st)
	}
	rel3, err := r.Admit("a", 6)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	rel3()
	if st := statsOf(t, r, "a"); st.Queued != 0 {
		t.Fatalf("queued after all releases: %+v", st)
	}
}

func TestRegistryNamespacesAndSnapshot(t *testing.T) {
	r, _ := newTestRegistry(Limits{})
	for _, name := range []string{"", "default", "a", "b"} {
		release, err := r.Admit(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	r.RecordOverload("b", 7)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[1].Name != "b" || snap[2].Name != "default" {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap[2].Accepted != 2 {
		t.Fatalf("empty name must alias the default tenant: %+v", snap[2])
	}
	if snap[1].RejectedOverload != 7 {
		t.Fatalf("overload ledger: %+v", snap[1])
	}
}

func TestConcurrentAdmit(t *testing.T) {
	r, _ := newTestRegistry(Limits{MaxQueued: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				if release, err := r.Admit("shared", rng.Intn(5)+1); err == nil {
					release()
				}
				r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if st := statsOf(t, r, "shared"); st.Queued != 0 {
		t.Fatalf("queued after quiesce: %+v", st)
	}
}

// Past maxTenants the registry drops only idle tenants (nothing queued, a
// full bucket) and folds their counters into the aggregate entry; while
// every tracked tenant is busy, a new one is turned away and counted.
// Nothing leaves the ledger: the snapshot's sums equal what was charged.
func TestRegistryBoundFoldsIdleTenants(t *testing.T) {
	r, clk := newTestRegistry(Limits{RatePerSec: 1, Burst: 1})
	// A tenant with queued work is never dropped, however long it waits.
	holdRelease, err := r.Admit("held", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxTenants; i++ {
		release, err := r.Admit(fmt.Sprint("t", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	// Every bucket is empty: no tenant is idle, so a new name is refused.
	_, err = r.Admit("late", 3)
	var re *RetryError
	if !errors.As(err, &re) || re.Reason != "full" {
		t.Fatalf("full registry: want full RetryError, got %v", err)
	}
	if n := len(r.Snapshot()); n != maxTenants+1 {
		t.Fatalf("snapshot of a full registry has %d entries, want %d and the aggregate", n, maxTenants)
	}
	// One second later every released bucket is full again: the new name
	// is admitted and the idle tenants fold into the aggregate.
	clk.Advance(time.Second)
	release, err := r.Admit("late", 1)
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	release()
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "" || snap[1].Name != "held" || snap[2].Name != "late" {
		t.Fatalf("snapshot after folding: %+v", snap)
	}
	if agg := snap[0]; agg.Accepted != maxTenants-1 || agg.RejectedFull != 3 || agg.Queued != 0 {
		t.Fatalf("aggregate %+v, want %d accepted and 3 rejected for a full registry", agg, maxTenants-1)
	}
	if snap[1].Queued != 1 {
		t.Fatalf("held tenant lost its queued job: %+v", snap[1])
	}
	holdRelease()
	// A returning tenant starts afresh, exactly like a new one.
	if _, err := r.Admit("t1", 1); err != nil {
		t.Fatalf("returning tenant refused: %v", err)
	}
	if st := statsOf(t, r, "t1"); st.Accepted != 1 {
		t.Fatalf("returning tenant %+v, want a fresh ledger", st)
	}
}
