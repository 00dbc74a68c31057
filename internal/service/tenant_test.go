package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tenant"
)

// startServerWith is startServer for tests that need ServerOptions —
// quota registries, metrics sources, concurrency — and the raw base URL
// for endpoints the Client does not wrap (/metrics).
func startServerWith(t *testing.T, opt service.ServerOptions) (*service.Client, string) {
	t.Helper()
	srv := httptest.NewServer(service.NewServerWith(opt).Handler())
	t.Cleanup(srv.Close)
	return service.NewClient(srv.URL, srv.Client()), srv.URL
}

func httpGet(t *testing.T, url, tenantName string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenantName != "" {
		req.Header.Set(service.TenantHeader, tenantName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue finds the sample whose name{labels} exactly equals prefix in
// a /metrics exposition and returns its value.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", prefix, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", prefix, body)
	return 0
}

func sameRowsModuloSeconds(t *testing.T, got, want []schedule.Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returned %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("%s row %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// An over-rate batch is rejected with 429 and a Retry-After the client's
// retry loop honors: the resubmission waits at least that long and then
// completes with rows bit-identical to a local run.
func TestRateLimitRejectsWithRetryAfterAndClientBackoff(t *testing.T) {
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Limits{RatePerSec: 50, Burst: 4})
	client, base := startServerWith(t, service.ServerOptions{Tenants: reg})
	client.Tenant = "acme"

	// The full bucket admits even an oversized batch, charging it in full.
	got, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsModuloSeconds(t, got, want, "first admitted batch")

	// The bucket is now deep in debt: an immediate resubmission is a 429
	// carrying Retry-After (the header floor is one second).
	bare := service.NewClient(base, nil)
	bare.Tenant = "acme"
	_, err = bare.Run(context.Background(), jobs, schedule.BatchOptions{})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch: err %v, want a 429", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("429 must carry Retry-After ≥ 1s, got %v", se.RetryAfter)
	}

	// A retrying client backs off for the advertised delay and succeeds.
	var throttles atomic.Int64
	retrier := service.NewClient(base, nil)
	retrier.Tenant = "acme"
	retrier.Retries = 4
	retrier.RetryBackoff = 10 * time.Millisecond
	retrier.OnThrottle = func(after time.Duration) {
		if after < time.Second {
			t.Errorf("OnThrottle delay %v, want ≥ 1s", after)
		}
		throttles.Add(1)
	}
	start := time.Now()
	got, err = retrier.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsModuloSeconds(t, got, want, "throttled-then-admitted batch")
	if throttles.Load() < 1 {
		t.Fatal("retrying client never observed a throttle")
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client retried after %v, want a back-off near Retry-After", elapsed)
	}
}

// The queue quota bounds admitted-but-unfinished jobs: a batch that alone
// exceeds it is rejected deterministically, while one inside the bound
// runs — and runs again, proving completed batches release their slots.
func TestQueueQuotaRejectsOversizedBatch(t *testing.T) {
	jobs := testJobs(t)
	reg := tenant.NewRegistry(tenant.Limits{MaxQueued: 2})
	client, _ := startServerWith(t, service.ServerOptions{Tenants: reg})
	client.Tenant = "acme"

	_, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: err %v, want a 429", err)
	}
	if !strings.Contains(se.Msg, "queue") {
		t.Fatalf("rejection should name the queue quota: %q", se.Msg)
	}
	for round := 0; round < 2; round++ {
		if _, err := client.Run(context.Background(), jobs[:2], schedule.BatchOptions{}); err != nil {
			t.Fatalf("round %d within the quota: %v", round, err)
		}
	}
}

// /metrics exposes the server's batch and retained-tree counters, the
// cache, shard and store counters it was configured with, and per-tenant
// admission stats, in the Prometheus text exposition format. The
// tree-reference counters are pinned by TestMetricsTreeRefs.
func TestMetricsEndpoint(t *testing.T) {
	jobs := testJobs(t)
	n := len(jobs)
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, schedule.Local{})
	if err != nil {
		t.Fatal(err)
	}
	cached := schedule.NewCached(shard, nil)
	reg := tenant.NewRegistry(tenant.Limits{RatePerSec: 0.5, Burst: n})
	client, base := startServerWith(t, service.ServerOptions{
		Backend: cached,
		Tenants: reg,
		Cache:   cached,
		Shard:   shard,
	})
	client.Tenant = "acme"

	trees := testInstances(t)
	if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// The bucket is drained and refills at 0.5/s: this rejection is sure.
	if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err == nil {
		t.Fatal("second immediate batch must be throttled")
	}

	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("exposition content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for prefix, want := range map[string]float64{
		`scheduled_batches_total{outcome="ok"}`:                              1,
		`scheduled_batches_total{outcome="rejected"}`:                        1,
		`scheduled_batches_total{outcome="failed"}`:                          0,
		`scheduled_rows_streamed_total`:                                      float64(n),
		`scheduled_tenant_accepted_jobs_total{tenant="acme"}`:                float64(n),
		`scheduled_tenant_rejected_jobs_total{tenant="acme",reason="rate"}`:  float64(n),
		`scheduled_tenant_rejected_jobs_total{tenant="acme",reason="queue"}`: 0,
		`scheduled_tenant_queued_jobs{tenant="acme"}`:                        0,
		`scheduled_cache_misses_total`:                                       float64(n),
		`scheduled_shard_resubmissions_total`:                                0,
		`scheduled_shard_load_sheds_total`:                                   0,
		fmt.Sprintf(`scheduled_shard_child_rows_total{child=%q}`, "local"):   float64(n),
	} {
		if got := metricValue(t, body, prefix); got != want {
			t.Fatalf("%s = %g, want %g", prefix, got, want)
		}
	}
	if hits := metricValue(t, body, "scheduled_cache_hits_total"); hits != 0 {
		t.Fatalf("cold cache reported %g hits", hits)
	}
	for _, family := range []string{
		"scheduled_batches_total", "scheduled_rows_streamed_total",
		"scheduled_retained_trees", "scheduled_tenant_accepted_jobs_total",
		"scheduled_tenant_rejected_jobs_total", "scheduled_tenant_queued_jobs",
	} {
		if !strings.Contains(body, "\n# TYPE "+family+" ") {
			t.Fatalf("family %s has no TYPE line:\n%s", family, body)
		}
	}
	if v := metricValue(t, body, "scheduled_retained_trees"); v != float64(len(trees)) {
		t.Fatalf("the admitted batch retained %g trees, want %d", v, len(trees))
	}

	// Store commits and stalls, on a server of its own: rows go into its
	// paged store until a background commit has landed and been published.
	// Neither the scrape nor StoreStats publishes a later one, so both read
	// the same counters.
	rs, err := schedule.OpenPagedStore(filepath.Join(t.TempDir(), "rows.paged"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	_, rowsBase := startServerWith(t, service.ServerOptions{Rows: rs})
	row, err := schedule.Local{}.Run(context.Background(), jobs[:1], schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; rs.StoreStats().Commits == 0; i++ {
		if i == 1<<20 {
			t.Fatal("a million rows never committed")
		}
		if err := rs.Put(fmt.Sprintf("fill-%d", i), row[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := rs.StoreStats()
	_, body = httpGet(t, rowsBase+"/metrics", "")
	for prefix, want := range map[string]float64{
		`scheduled_store_rows`:                float64(rs.Len()),
		`scheduled_store_commits_total`:       float64(st.Commits),
		`scheduled_store_commit_stalls_total`: float64(st.CommitStalls),
	} {
		if got := metricValue(t, body, prefix); got != want {
			t.Fatalf("%s = %g, want %g", prefix, got, want)
		}
	}
}

// Satellite pin: a chunk rejected with 429 by one child is resubmitted by
// the shard to another, and the merged stream announces every row exactly
// once — no duplicates from the failed dispatch.
func TestShardResubmitsRejectedChunkWithoutDuplicates(t *testing.T) {
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Child A rejects every chunk: its queue quota (1 job) is below any
	// chunk size, a deterministic 429. Child B is unlimited.
	rejecting := tenant.NewRegistry(tenant.Limits{MaxQueued: 1})
	ca, baseA := startServerWith(t, service.ServerOptions{Tenants: rejecting})
	cb, _ := startServerWith(t, service.ServerOptions{})
	// No client-side retries: the 429 surfaces to the shard immediately.
	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		QuarantineBase: time.Millisecond,
	}, ca, cb)
	if err != nil {
		t.Fatal(err)
	}

	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	sameRowsModuloSeconds(t, sank.Rows(), want, "shard over a rejecting child")
	if c := shard.Counters(); c.Resubmissions < 1 {
		t.Fatalf("rejected chunks were not resubmitted: counters %+v", c)
	}
	_, body := httpGet(t, baseA+"/metrics", "")
	if v := metricValue(t, body, `scheduled_tenant_rejected_jobs_total{tenant="default",reason="queue"}`); v < 4 {
		t.Fatalf("rejecting child counted %g rejected jobs, want ≥ one chunk", v)
	}
}

// Acceptance pin: a quota-limited sharded export stays bit-identical to a
// local run for the admitted work — throttled chunks back off per the
// servers' Retry-After and land eventually, never duplicated or dropped.
func TestQuotaLimitedShardMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("backs off for whole seconds on 429s")
	}
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var throttles atomic.Int64
	children := make([]schedule.Backend, 2)
	for i := range children {
		reg := tenant.NewRegistry(tenant.Limits{RatePerSec: 4, Burst: 8})
		c, _ := startServerWith(t, service.ServerOptions{Tenants: reg})
		c.Tenant = "load"
		c.Retries = 8
		c.RetryBackoff = 10 * time.Millisecond
		c.OnThrottle = func(time.Duration) { throttles.Add(1) }
		children[i] = c
	}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, children...)
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	sameRowsModuloSeconds(t, sank.Rows(), want, "quota-limited shard")
	if throttles.Load() < 1 {
		t.Fatal("the quota never throttled a chunk — tighten the limits")
	}
}

// ServerOptions.Concurrency lifts the historical one-batch-at-a-time
// bound: concurrent submissions overlap on the backend.
func TestServerConcurrencyOption(t *testing.T) {
	probe := &concurrencyBackend{inner: schedule.Local{}}
	client, _ := startServerWith(t, service.ServerOptions{Backend: probe, Concurrency: 3})
	jobs := testJobs(t)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Run(context.Background(), jobs[:4], schedule.BatchOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := probe.peak.Load(); p < 2 {
		t.Fatalf("Concurrency 3 never overlapped batches (peak %d)", p)
	}
}

// Satellite pin: Health probes /healthz, not the algorithm registry — a
// server whose discovery endpoint is broken still reads as healthy.
func TestHealthIndependentOfAlgorithmsEndpoint(t *testing.T) {
	inner := service.NewServerWith(service.ServerOptions{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/algorithms" {
			http.Error(w, "discovery down", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := service.NewClient(srv.URL, srv.Client())
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("health must not depend on /v1/algorithms: %v", err)
	}
	if code, _ := httpGet(t, srv.URL+"/v1/algorithms", ""); code != http.StatusInternalServerError {
		t.Fatalf("discovery is down, yet /v1/algorithms answered %d", code)
	}
}

// Fresh X-Tenant names cannot grow the server without bound. A body that
// fails to decode never reaches the tenant registry, and past its bound
// the registry turns new names away while every tracked tenant is busy
// (here: each one's bucket is empty for the next 1,000 s). Nothing is lost
// from the ledger: accepted and rejected jobs, summed over every tenant
// series and the aggregate, equal what was posted.
func TestFreshTenantNamesStayBounded(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Limits{RatePerSec: 0.001, Burst: 1})
	handler := service.NewServerWith(service.ServerOptions{Tenants: reg}).Handler()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	for i := 0; i < 20_000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader("x"))
		req.Header.Set("Content-Type", service.ContentTypeBinaryBatch)
		req.Header.Set(service.TenantHeader, fmt.Sprint("junk-", i))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("one-byte post %d answered %d, want 400", i, rec.Code)
		}
	}

	// Each of these tenants posts one job twice: the first batch empties
	// its one-job bucket, so the second is over its rate.
	const tenants = 1200
	job := testJobs(t)[:1]
	var accepted, rejected int
	for i := 0; i < tenants; i++ {
		c := service.NewClient(srv.URL, srv.Client())
		c.Tenant = fmt.Sprint("tenant-", i)
		for k := 0; k < 2; k++ {
			_, err := c.Run(context.Background(), job, schedule.BatchOptions{})
			var se *service.StatusError
			switch {
			case err == nil:
				accepted++
			case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
				rejected++
			default:
				t.Fatalf("tenant %d batch %d: %v", i, k, err)
			}
		}
	}

	_, body := httpGet(t, srv.URL+"/metrics", "")
	lines := strings.Split(body, "\n")
	var tracked int
	var sumAccepted, sumRejected float64
	for _, line := range lines {
		name, value, ok := strings.Cut(line, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad sample %q", line)
		}
		switch {
		case strings.HasPrefix(name, "scheduled_tenant_accepted_jobs_total{"):
			sumAccepted += v
		case strings.HasPrefix(name, "scheduled_tenant_rejected_jobs_total{"):
			sumRejected += v
		case strings.HasPrefix(name, "scheduled_tenant_queued_jobs{") && name != `scheduled_tenant_queued_jobs{tenant=""`:
			tracked++
		}
	}
	if tracked >= tenants || len(lines) > 10_000 {
		t.Fatalf("/metrics has %d lines and %d tenant series after %d fresh tenant names", len(lines), tracked, 20_000+tenants)
	}
	if accepted == 0 || rejected <= tenants {
		t.Fatalf("%d accepted and %d rejected batches: the bound was not reached", accepted, rejected)
	}
	if int(sumAccepted) != accepted || int(sumRejected) != rejected {
		t.Fatalf("/metrics sums %v accepted and %v rejected jobs, clients saw %d and %d",
			sumAccepted, sumRejected, accepted, rejected)
	}
}
