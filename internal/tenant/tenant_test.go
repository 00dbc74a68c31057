package tenant

import (
	"errors"
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

func TestTokenBucketRefill(t *testing.T) {
	r, clk := newTestRegistry(Limits{RatePerSec: 10, Burst: 20})
	ten := r.Tenant("a")
	// The bucket starts full: 20 tokens admit two batches of 10.
	for i := 0; i < 2; i++ {
		release, err := ten.Admit(10)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	// Empty bucket: a batch of 5 needs 0.5s of refill.
	_, err := ten.Admit(5)
	var re *RetryError
	if !errors.As(err, &re) || re.Reason != "rate" {
		t.Fatalf("want rate RetryError, got %v", err)
	}
	if re.After <= 0 || re.After > 500*time.Millisecond {
		t.Fatalf("retry-after %v outside (0, 500ms]", re.After)
	}
	clk.Advance(re.After)
	release, err := ten.Admit(5)
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	release()
	st := ten.Stats()
	if st.Accepted != 25 || st.RejectedRate != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOversizedBatchDelayedNotStarved(t *testing.T) {
	r, clk := newTestRegistry(Limits{RatePerSec: 100, Burst: 10})
	ten := r.Tenant("a")
	// 30 jobs > burst 10: admitted at a full bucket, charged in full.
	release, err := ten.Admit(30)
	if err != nil {
		t.Fatalf("oversized admit: %v", err)
	}
	release()
	// Deficit of 20 plus the 10-token need: 0.3s to admit again.
	if _, err := ten.Admit(30); err == nil {
		t.Fatal("second oversized admit should hit the deficit")
	}
	clk.Advance(300 * time.Millisecond)
	if release, err = ten.Admit(30); err != nil {
		t.Fatalf("admit after deficit refill: %v", err)
	}
	release()
}

func TestQueueQuota(t *testing.T) {
	r, _ := newTestRegistry(Limits{MaxQueued: 10})
	ten := r.Tenant("a")
	rel1, err := ten.Admit(6)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := ten.Admit(4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ten.Admit(1)
	var re *RetryError
	if !errors.As(err, &re) || re.Reason != "queue" {
		t.Fatalf("want queue RetryError, got %v", err)
	}
	if st := ten.Stats(); st.Queued != 10 || st.RejectedQueue != 1 {
		t.Fatalf("stats: %+v", st)
	}
	rel1()
	rel1() // double release must not free extra slots
	if st := ten.Stats(); st.Queued != 4 {
		t.Fatalf("queued after release: %+v", st)
	}
	rel3, err := ten.Admit(6)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	rel3()
	if st := ten.Stats(); st.Queued != 0 {
		t.Fatalf("queued after all releases: %+v", st)
	}
}

func TestRegistryNamespacesAndSnapshot(t *testing.T) {
	r, _ := newTestRegistry(Limits{})
	if r.Tenant("") != r.Tenant("default") {
		t.Fatal("empty name must alias the default tenant")
	}
	if r.Tenant("a") == r.Tenant("b") {
		t.Fatal("distinct names must be distinct tenants")
	}
	r.Tenant("b").RecordOverload(7)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[1].Name != "b" || snap[2].Name != "default" {
		t.Fatalf("snapshot: %+v", snap)
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
			ten := r.Tenant("shared")
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				if release, err := ten.Admit(rng.Intn(5) + 1); err == nil {
					release()
				}
				ten.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := r.Tenant("shared").Stats()
	if st.Queued != 0 {
		t.Fatalf("queued after quiesce: %+v", st)
	}
}
