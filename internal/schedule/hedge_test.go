package schedule_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/schedule/scheduletest"
)

// exportNoTime renders rows the way cmd/experiments exports them, with the
// wall-clock column zeroed so two runs of the same grid are byte-comparable.
func exportNoTime(t *testing.T, rows []schedule.Row) []byte {
	t.Helper()
	cp := append([]schedule.Row(nil), rows...)
	for i := range cp {
		cp[i].Seconds = 0
	}
	var buf bytes.Buffer
	if err := schedule.WriteRowsJSON(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The pinned differential: one child turns an order of magnitude slower
// mid-grid. A hedged shard must (a) export byte-identical rows to a Local
// run, (b) record at least one hedge win, (c) cancel the straggling
// attempt rather than abandon it, and (d) emit exactly one row per job —
// the losing arm's rows never reach the sink.
func TestHedgedShardBeatsStraggler(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := exportNoTime(t, want)

	// The straggler answers its first call at full speed, then stalls every
	// later chunk far past the hedge threshold. Round-robin dispatch keeps
	// feeding it regardless — the worst case for a straggler, and the
	// deterministic one: the adaptive policy would instead starve it of
	// chunks after the first throughput measurement.
	slow := scheduletest.NewFaultBackend(schedule.Local{})
	slow.SlowAfter(1, 400*time.Millisecond)
	fast := scheduletest.NewFaultBackend(schedule.Local{})
	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		Policy:         schedule.PolicyRoundRobin,
		HedgeAfter:     20 * time.Millisecond,
		QuarantineBase: time.Millisecond,
	}, slow, fast)
	if err != nil {
		t.Fatal(err)
	}

	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, sank.Rows(), "hedged shard vs local")
	if got := exportNoTime(t, sank.Rows()); !bytes.Equal(got, wantJSON) {
		t.Fatal("hedged shard export is not byte-identical to the local export")
	}
	c := shard.Counters()
	if c.HedgeWins < 1 {
		t.Fatalf("straggler was never beaten: counters %+v", c)
	}
	if c.Hedges < c.HedgeWins {
		t.Fatalf("more wins than hedges: counters %+v", c)
	}
	// A stalled-then-cancelled attempt is a hedge loss, not a failure:
	// nothing here should have tripped the resubmission/quarantine path.
	if c.Resubmissions != 0 || c.Quarantines != 0 {
		t.Fatalf("hedging leaked into the failure path: counters %+v", c)
	}
	if slow.Cancellations() < 1 {
		t.Fatalf("losing attempt was never cancelled: %d cancellations", slow.Cancellations())
	}
}

// Randomized schedules: every child runs a seeded per-call latency script
// and one child also fails deterministically scripted calls. Whatever
// interleaving of hedges, losses and resubmissions results, the export
// must stay byte-identical to Local with exactly one row per job.
func TestHedgedShardRandomLatencyMatchesLocal(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := exportNoTime(t, want)

	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7919*seed + 17))
			children := make([]schedule.Backend, 3)
			for i := range children {
				fb := scheduletest.NewFaultBackend(schedule.Local{})
				delays := make([]time.Duration, 64)
				for j := range delays {
					delays[j] = time.Duration(rng.Intn(15)) * time.Millisecond
				}
				fb.SetDelayScript(func(call int, _ []schedule.Job) time.Duration {
					return delays[call%len(delays)]
				})
				if i == 0 {
					// Only one child ever fails, so no chunk can exhaust
					// all three children and the stream never errors.
					fb.SetFailScript(func(call int) error {
						if call%5 == 3 {
							return errors.New("injected fault")
						}
						return nil
					})
				}
				children[i] = fb
			}
			shard, err := schedule.NewShardWith(schedule.ShardOptions{
				HedgeAfter:     5 * time.Millisecond,
				QuarantineBase: time.Millisecond,
			}, children...)
			if err != nil {
				t.Fatal(err)
			}
			var sank schedule.Collector
			if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
				schedule.StreamOptions{ChunkSize: 3}); err != nil {
				t.Fatal(err)
			}
			sameRowsNoTime(t, want, sank.Rows(), "randomized hedged shard vs local")
			if got := exportNoTime(t, sank.Rows()); !bytes.Equal(got, wantJSON) {
				t.Fatal("randomized hedged export is not byte-identical to the local export")
			}
		})
	}
}

// Concurrent hedged streams over one shard — the shape the race detector
// job leans on: four grids in flight at once, all hedging off the same
// straggler, each must come back complete and duplicate-free.
func TestHedgedShardConcurrentStreams(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow := scheduletest.NewFaultBackend(schedule.Local{})
	slow.SlowAfter(1, 60*time.Millisecond)
	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		Policy:         schedule.PolicyRoundRobin,
		HedgeAfter:     10 * time.Millisecond,
		QuarantineBase: time.Millisecond,
	}, slow, scheduletest.NewFaultBackend(schedule.Local{}))
	if err != nil {
		t.Fatal(err)
	}

	const streams = 4
	sinks := make([]schedule.Collector, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = shard.Stream(context.Background(), schedule.SliceSource(jobs), &sinks[i],
				schedule.StreamOptions{ChunkSize: 3})
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		sameRowsNoTime(t, want, sinks[i].Rows(), fmt.Sprintf("concurrent hedged stream %d vs local", i))
	}
}
