package scheduletest_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/schedule/scheduletest"
	_ "repro/internal/traversal" // registers the MinMemory solvers
	"repro/internal/tree"
)

// gridJobs returns six MinMemory jobs over three small random trees.
func gridJobs(t *testing.T) []schedule.Job {
	t.Helper()
	var insts []schedule.Instance
	for seed := int64(0); seed < 3; seed++ {
		tr, err := tree.Random(rand.New(rand.NewSource(seed)), tree.RandomOptions{Nodes: 20, MaxF: 15, MaxN: 6})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, schedule.Instance{Name: "rand", Tree: tr})
	}
	return schedule.MinMemoryGrid(insts, []string{"postorder", "minmem"})
}

func sameRowsNoTime(t *testing.T, a, b []schedule.Row, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Seconds, y.Seconds = 0, 0
		if x != y {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// countingBackend counts the jobs its inner backend is asked to run.
type countingBackend struct {
	inner schedule.Backend
	jobs  atomic.Int64
}

func (b *countingBackend) Capabilities() schedule.Capabilities {
	return b.inner.Capabilities()
}

func (b *countingBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	b.jobs.Add(int64(len(jobs)))
	return b.inner.Run(ctx, jobs, opt)
}

func (b *countingBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

// With no scripts set, the fault harness is a transparent wrapper: same
// rows as Local, named as the wrapper, calls counted.
func TestFaultBackendTransparent(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := scheduletest.NewFaultBackend(schedule.Local{})
	if name := fb.Capabilities().Name; name != "fault(local)" {
		t.Fatalf("capabilities name %q", name)
	}
	got, err := fb.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, got, "transparent fault backend vs local")
	var sank schedule.Collector
	if err := fb.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, sank.Rows(), "transparent fault backend stream vs local")
	if fb.Runs() == 0 || fb.Cancellations() != 0 {
		t.Fatalf("runs %d cancellations %d", fb.Runs(), fb.Cancellations())
	}
}

// The latency script sees deterministic call numbers, and the fail script
// fails the calls it names without running the inner backend.
func TestFaultBackendScripts(t *testing.T) {
	jobs := gridJobs(t)[:4]
	fb := scheduletest.NewFaultBackend(schedule.Local{})
	var delayed []int
	fb.SetDelayScript(func(call int, jobs []schedule.Job) time.Duration {
		if len(jobs) == 0 {
			t.Error("delay script saw an empty chunk")
		}
		delayed = append(delayed, call)
		return 0
	})
	for i := 0; i < 3; i++ {
		if _, err := fb.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(delayed) != 3 || delayed[0] != 0 || delayed[1] != 1 || delayed[2] != 2 {
		t.Fatalf("delay script saw calls %v, want [0 1 2]", delayed)
	}

	boom := errors.New("scripted failure")
	fb.SetDelayScript(nil)
	fb.SetFailScript(func(call int) error {
		if call == 4 {
			return boom
		}
		return nil
	})
	if _, err := fb.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatalf("call 3 should pass: %v", err)
	}
	if _, err := fb.Run(context.Background(), jobs, schedule.BatchOptions{}); !errors.Is(err, boom) {
		t.Fatalf("call 4 err %v, want the scripted failure", err)
	}
	if _, err := fb.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatalf("call 5 should pass: %v", err)
	}
}

// A cancelled injected wait returns ctx.Err() promptly — without running
// the inner backend — counts as a cancellation, and fires the OnCancel
// hook with the call number. This is what makes the harness a faithful
// stand-in for a server whose request context dies with its client.
func TestFaultBackendCancelledWait(t *testing.T) {
	jobs := gridJobs(t)[:2]
	inner := &countingBackend{inner: schedule.Local{}}
	fb := scheduletest.NewFaultBackend(inner)
	fb.SetDelay(time.Minute)
	observed := make(chan int, 1)
	fb.OnCancel(func(call int) { observed <- call })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fb.Run(ctx, jobs, schedule.BatchOptions{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled wait did not return")
	}
	select {
	case call := <-observed:
		if call != 0 {
			t.Fatalf("OnCancel saw call %d, want 0", call)
		}
	default:
		t.Fatal("OnCancel hook never fired")
	}
	if fb.Cancellations() != 1 {
		t.Fatalf("cancellations %d, want 1", fb.Cancellations())
	}
	if got := inner.jobs.Load(); got != 0 {
		t.Fatalf("inner backend saw %d jobs during a cancelled wait", got)
	}
}
