// Package scheduletest provides test support for code built on package
// schedule: FaultBackend, a Backend wrapper that injects scripted latency
// and failures.
package scheduletest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
)

// FaultBackend is a deterministic fault-injection harness around a Backend,
// for tests: per-call latency scripts, scripted failures, and a hook
// observing cancelled injected waits. The injected delay honors context
// cancellation — a cancelled call returns ctx.Err() without running the
// inner backend — so a hedged shard's loser releases the child
// immediately, exactly like a real server whose request context is
// cancelled when the client hangs up.
//
// With no scripts set, FaultBackend is a transparent wrapper. Call numbers
// are assigned under a lock across concurrent Runs, monotonically from 0,
// so a script keyed on the call number is deterministic in how many calls
// misbehave even when their order interleaves.
type FaultBackend struct {
	inner schedule.Backend

	mu       sync.Mutex
	calls    int
	delay    func(call int, jobs []schedule.Job) time.Duration
	fail     func(call int) error
	onCancel func(call int)

	runs      atomic.Int64
	cancelled atomic.Int64
}

// NewFaultBackend wraps inner with no faults scripted.
func NewFaultBackend(inner schedule.Backend) *FaultBackend {
	return &FaultBackend{inner: inner}
}

// Capabilities implements Backend, naming the wrapper around the inner
// backend's capabilities.
func (f *FaultBackend) Capabilities() schedule.Capabilities {
	caps := f.inner.Capabilities()
	caps.Name = "fault(" + caps.Name + ")"
	return caps
}

// SetDelay injects a fixed latency before every Run call.
func (f *FaultBackend) SetDelay(d time.Duration) {
	f.SetDelayScript(func(int, []schedule.Job) time.Duration { return d })
}

// SetDelayScript injects a per-call latency: the script sees the 0-based
// call number and the call's jobs, and returns how long the call stalls
// before evaluating. A nil script removes the injection.
func (f *FaultBackend) SetDelayScript(script func(call int, jobs []schedule.Job) time.Duration) {
	f.mu.Lock()
	f.delay = script
	f.mu.Unlock()
}

// SetFailScript injects per-call failures: a non-nil return fails the call
// (after its injected delay) without running the inner backend. A nil
// script removes the injection.
func (f *FaultBackend) SetFailScript(script func(call int) error) {
	f.mu.Lock()
	f.fail = script
	f.mu.Unlock()
}

// OnCancel registers a hook observing cancelled injected waits: it runs on
// the Run goroutine when a delayed call's context is cancelled mid-stall,
// with that call's number. Tests use it to assert that a hedge loser's
// child really observed the cancellation rather than stalling to term.
func (f *FaultBackend) OnCancel(hook func(call int)) {
	f.mu.Lock()
	f.onCancel = hook
	f.mu.Unlock()
}

// Runs returns how many Run calls have started.
func (f *FaultBackend) Runs() int64 { return f.runs.Load() }

// Cancellations returns how many injected waits were cut short by context
// cancellation.
func (f *FaultBackend) Cancellations() int64 { return f.cancelled.Load() }

// Run implements Backend: the call stalls per the delay script (honoring
// cancellation), fails per the fail script, and otherwise runs the inner
// backend.
func (f *FaultBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	f.runs.Add(1)
	f.mu.Lock()
	call := f.calls
	f.calls++
	var delay time.Duration
	if f.delay != nil {
		delay = f.delay(call, jobs)
	}
	var failErr error
	if f.fail != nil {
		failErr = f.fail(call)
	}
	hook := f.onCancel
	f.mu.Unlock()
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			f.cancelled.Add(1)
			if hook != nil {
				hook(call)
			}
			return nil, ctx.Err()
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	return f.inner.Run(ctx, jobs, opt)
}

// Stream implements Backend via the chunked shim, so a FaultBackend slots
// anywhere a Backend does (each chunk is one scripted call).
func (f *FaultBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, f.Run, src, sink, opt)
}
