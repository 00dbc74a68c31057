package schedule_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/schedule"
)

// slowBackend delegates to inner after a fixed delay per Run call — the
// stand-in for an overloaded or distant server.
type slowBackend struct {
	inner schedule.Backend
	delay time.Duration
	name  string
}

func (b *slowBackend) Capabilities() schedule.Capabilities {
	return schedule.Capabilities{Name: b.name}
}

func (b *slowBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	time.Sleep(b.delay)
	return b.inner.Run(ctx, jobs, opt)
}

func (b *slowBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

// The adaptive policy converges to weighted dispatch: a child an order of
// magnitude slower than its sibling ends up with a small fraction of the
// chunks, while the merged rows stay bit-identical to a Local run.
func TestAdaptiveDispatchWeightsByThroughput(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast := &slowBackend{inner: schedule.Local{}, delay: time.Millisecond, name: "fast"}
	slow := &slowBackend{inner: schedule.Local{}, delay: 25 * time.Millisecond, name: "slow"}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 1}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, sank.Rows(), "weighted shard vs local")
	stats := shard.ChildStats()
	byName := map[string]schedule.ShardChildStats{}
	for _, cs := range stats {
		byName[cs.Name] = cs
	}
	f, s := byName["fast"], byName["slow"]
	if f.Chunks+s.Chunks != int64(len(jobs)) {
		t.Fatalf("chunk accounting: fast %d + slow %d != %d", f.Chunks, s.Chunks, len(jobs))
	}
	// The slow child is explored (so it gets measured) but must not keep an
	// equal share: the fast child should take the clear majority.
	if f.Chunks <= 2*s.Chunks {
		t.Fatalf("adaptive dispatch did not weight by throughput: fast %d chunks, slow %d", f.Chunks, s.Chunks)
	}
	if f.RowsPerSec == 0 {
		t.Fatal("fast child has no observed throughput after the stream")
	}
}

// flappingBackend is a flakyBackend with a health probe: it reports
// unhealthy until its failure budget is spent, then healthy — a server that
// crashes and comes back.
type flappingBackend struct {
	flakyBackend
}

func (b *flappingBackend) Health(ctx context.Context) error {
	if b.failN.Load() > 0 {
		return errors.New("flapping: still down")
	}
	return nil
}

// A flapping child is quarantined on failure and readmitted once its
// backoff expires and its health probe passes; after readmission it serves
// chunks again and the merged rows stay bit-identical to a Local run.
func TestFlappingChildQuarantinedThenReadmitted(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flappy := &flappingBackend{flakyBackend{inner: schedule.Local{}}}
	flappy.failN.Store(1)
	steady := &slowBackend{inner: schedule.Local{}, delay: 5 * time.Millisecond, name: "steady"}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{QuarantineBase: time.Millisecond}, flappy, steady)
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 2}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, sank.Rows(), "flapping shard vs local")
	c := shard.Counters()
	if c.Quarantines < 1 || c.Readmissions < 1 {
		t.Fatalf("flapping child lifecycle not recorded: counters %+v", c)
	}
	var flappyStats schedule.ShardChildStats
	for _, cs := range shard.ChildStats() {
		if cs.Name == "flaky(local)" {
			flappyStats = cs
		}
	}
	if flappyStats.Chunks < 1 {
		t.Fatalf("readmitted child served no chunks: %+v", flappyStats)
	}
	if flappyStats.Quarantines < 1 || flappyStats.Readmissions < 1 {
		t.Fatalf("per-child lifecycle counters not recorded: %+v", flappyStats)
	}
}

// A child whose health probe keeps failing stays quarantined — probes are
// not readmissions — and the stream completes on the remaining children.
func TestDeadChildStaysQuarantined(t *testing.T) {
	jobs := gridJobs(t)
	dead := &flappingBackend{flakyBackend{inner: schedule.Local{}}}
	dead.failN.Store(1 << 30) // never recovers, probe always fails
	steady := &slowBackend{inner: schedule.Local{}, delay: time.Millisecond, name: "steady"}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{QuarantineBase: time.Microsecond}, dead, steady)
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	if len(sank.Rows()) != len(jobs) {
		t.Fatalf("streamed %d rows, want %d", len(sank.Rows()), len(jobs))
	}
	c := shard.Counters()
	if c.Quarantines < 1 {
		t.Fatalf("dead child never quarantined: %+v", c)
	}
	if c.Readmissions != 0 {
		t.Fatalf("dead child readmitted despite failing probes: %+v", c)
	}
}
