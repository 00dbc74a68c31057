package schedule_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
)

// flakyBackend fails its first failN Run calls, then delegates — the
// in-process stand-in for a scheduled server that drops out mid-grid.
type flakyBackend struct {
	inner schedule.Backend
	failN atomic.Int64
	runs  atomic.Int64
}

func (b *flakyBackend) Capabilities() schedule.Capabilities {
	c := b.inner.Capabilities()
	c.Name = "flaky(" + c.Name + ")"
	return c
}

func (b *flakyBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	b.runs.Add(1)
	if b.failN.Add(-1) >= 0 {
		return nil, errors.New("flaky: connection reset")
	}
	return b.inner.Run(ctx, jobs, opt)
}

func (b *flakyBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

func TestNewShardRejects(t *testing.T) {
	if _, err := schedule.NewShardWith(schedule.ShardOptions{}); err == nil {
		t.Fatal("empty shard accepted")
	}
	if _, err := schedule.NewShardWith(schedule.ShardOptions{}, schedule.Local{}, nil); err == nil {
		t.Fatal("nil child accepted")
	}
	for _, policy := range []schedule.ShardPolicy{"fastest", "roundrobin"} {
		if _, err := schedule.NewShardWith(schedule.ShardOptions{Policy: policy}, schedule.Local{}); err == nil {
			t.Fatalf("policy %q accepted", policy)
		}
	}
}

// A shard over healthy children returns the rows of a Local run
// bit-identically (Seconds aside), via Run and via Stream, with the policy
// left empty or named.
func TestShardMatchesLocal(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []schedule.ShardPolicy{"", schedule.PolicyAdaptive} {
		shard, err := schedule.NewShardWith(schedule.ShardOptions{Policy: policy},
			schedule.Local{}, schedule.Local{}, schedule.Local{})
		if err != nil {
			t.Fatal(err)
		}
		if caps := shard.Capabilities(); !strings.HasPrefix(caps.Name, "shard(") {
			t.Fatalf("capabilities %+v", caps)
		}
		got, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRowsNoTime(t, want, got, string(policy)+" shard run vs local")

		var sank schedule.Collector
		if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
			schedule.StreamOptions{ChunkSize: 3}); err != nil {
			t.Fatal(err)
		}
		sameRowsNoTime(t, want, sank.Rows(), string(policy)+" shard stream vs local")
		if c := shard.Counters(); c.Resubmissions != 0 || c.Quarantines != 0 || c.Readmissions != 0 ||
			c.Hedges != 0 || c.HedgeWins != 0 {
			t.Fatalf("healthy shard recorded counters %+v", c)
		}
		stats := shard.ChildStats()
		if len(stats) != 3 {
			t.Fatalf("child stats %+v", stats)
		}
		var chunks, rows int64
		for _, cs := range stats {
			chunks += cs.Chunks
			rows += cs.Rows
		}
		if rows != int64(2*len(jobs)) || chunks == 0 { // Run + Stream passes
			t.Fatalf("child stats account for %d rows in %d chunks, want %d rows", rows, chunks, 2*len(jobs))
		}
	}
}

// A child that fails mid-grid costs a resubmission and a quarantine, not
// the batch: the failed chunk lands on the other child and the merged rows
// stay bit-identical to a Local run.
func TestShardResubmitsFailedChunks(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBackend{inner: schedule.Local{}}
	flaky.failN.Store(1)
	shard, err := schedule.NewShardWith(schedule.ShardOptions{QuarantineBase: time.Millisecond}, flaky, schedule.Local{})
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 2}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, sank.Rows(), "shard with flaky child vs local")
	c := shard.Counters()
	if c.Resubmissions < 1 {
		t.Fatalf("failed chunk not resubmitted: counters %+v", c)
	}
	if c.Quarantines < 1 {
		t.Fatalf("failing child not quarantined: counters %+v", c)
	}
	if flaky.runs.Load() == 0 {
		t.Fatal("flaky child never dispatched to")
	}
}

// Only when every child fails a chunk does the stream fail, with a typed
// ChunkError naming the chunk's job index range so the run can be resumed.
func TestShardFailsWhenAllChildrenFail(t *testing.T) {
	jobs := gridJobs(t)[:10]
	dead1, dead2 := &flakyBackend{inner: schedule.Local{}}, &flakyBackend{inner: schedule.Local{}}
	dead1.failN.Store(1 << 30)
	dead2.failN.Store(1 << 30)
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, dead1, dead2)
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	err = shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4})
	if err == nil || !strings.Contains(err.Error(), "failed on all children") {
		t.Fatalf("all-dead shard: got %v", err)
	}
	var ce *schedule.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *ChunkError: %v", err)
	}
	if ce.First != 0 || ce.Last != 4 {
		t.Fatalf("chunk error names jobs [%d,%d), want [0,4)", ce.First, ce.Last)
	}
	if !strings.Contains(ce.Error(), "flaky(local)") {
		t.Fatalf("chunk error does not name the children: %v", ce)
	}

	// A deterministic job error also fails — every child rejects it the
	// same way, and the index range points at the offending chunk.
	bad := []schedule.Job{{Instance: "x", Tree: jobs[0].Tree, Algorithm: "no-such-solver"}}
	healthy, err := schedule.NewShardWith(schedule.ShardOptions{}, schedule.Local{}, schedule.Local{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = healthy.Run(context.Background(), bad, schedule.BatchOptions{})
	if err == nil || !strings.Contains(err.Error(), "no-such-solver") {
		t.Fatalf("job error not surfaced: %v", err)
	}
	if !errors.As(err, &ce) || ce.First != 0 || ce.Last != 1 {
		t.Fatalf("job error chunk range: %v", err)
	}
}
