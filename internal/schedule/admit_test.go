package schedule_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/schedule"
)

// blockingBackend parks every Run until released, so a test can hold jobs
// in flight on a shard child while probing admission.
type blockingBackend struct {
	inner   schedule.Backend
	started chan struct{} // one send per Run entry
	release chan struct{} // closed to let Runs proceed
}

func (b *blockingBackend) Capabilities() schedule.Capabilities {
	return schedule.Capabilities{Name: "blocking"}
}

func (b *blockingBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner.Run(ctx, jobs, opt)
}

func (b *blockingBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

func TestShardAdmitShedsWhenQueuesDeep(t *testing.T) {
	child := &blockingBackend{
		inner:   schedule.Local{},
		started: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{MaxQueueDepth: 4}, child)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Admit(1); err != nil {
		t.Fatalf("idle shard must admit: %v", err)
	}
	jobs := gridJobs(t)
	done := make(chan error, 1)
	go func() {
		_, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{})
		done <- err
	}()
	<-child.started // the chunk is in flight and holds ≥ MaxQueueDepth jobs
	err = shard.Admit(1)
	var oe *schedule.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want OverloadError while the queue is deep, got %v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("OverloadError must advertise a retry delay: %+v", oe)
	}
	if c := shard.Counters(); c.LoadSheds != 1 {
		t.Fatalf("LoadSheds = %d, want 1", c.LoadSheds)
	}
	close(child.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := shard.Admit(1); err != nil {
		t.Fatalf("drained shard must admit again: %v", err)
	}
}

func TestShardAdmitRejectsWhenAllQuarantined(t *testing.T) {
	failing := &flakyBackend{inner: schedule.Local{}}
	failing.failN.Store(1 << 30) // never recovers
	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		MaxQueueDepth:  4,
		QuarantineBase: time.Hour, // stays benched for the whole test
	}, failing)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gridJobs(t)
	if _, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{}); err == nil {
		t.Fatal("run over an always-failing child must fail")
	}
	var oe *schedule.OverloadError
	if err := shard.Admit(1); !errors.As(err, &oe) {
		t.Fatalf("fully quarantined shard must shed, got %v", err)
	}
}

func TestShardAdmitDisabledByDefault(t *testing.T) {
	child := &blockingBackend{
		inner:   schedule.Local{},
		started: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	close(child.release)
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, child)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Admit(1 << 20); err != nil {
		t.Fatalf("MaxQueueDepth unset must admit everything: %v", err)
	}
}

func TestCachedAdmitDelegates(t *testing.T) {
	child := &blockingBackend{
		inner:   schedule.Local{},
		started: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{MaxQueueDepth: 2}, child)
	if err != nil {
		t.Fatal(err)
	}
	cached := schedule.NewCached(shard, nil)
	if err := cached.Admit(1); err != nil {
		t.Fatalf("idle inner shard must admit through the cache: %v", err)
	}
	jobs := gridJobs(t)
	done := make(chan error, 1)
	go func() {
		_, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{})
		done <- err
	}()
	<-child.started
	var oe *schedule.OverloadError
	if err := cached.Admit(1); !errors.As(err, &oe) {
		t.Fatalf("cache must surface the inner shard's shed, got %v", err)
	}
	close(child.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// A cache over a backend without admission control admits everything.
	if err := schedule.NewCached(schedule.Local{}, nil).Admit(1 << 20); err != nil {
		t.Fatalf("cache over Local must admit: %v", err)
	}
}
