package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/schedule/scheduletest"
	"repro/internal/service"
	"repro/internal/tree"
)

var addrRE = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startScheduled runs the binary's run() on an ephemeral port and returns
// the base URL plus a shutdown func that waits for a clean exit.
func startScheduled(t *testing.T, extraArgs ...string) (string, func() string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	var out strings.Builder
	go func() {
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, extraArgs...), pw)
		pw.Close()
		errc <- err
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		out.WriteString(sc.Text())
		out.WriteByte('\n')
		if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		cancel()
		t.Fatalf("server never reported its address; output:\n%s\nerr: %v", out.String(), <-errc)
	}
	drained := make(chan struct{})
	go func() { // keep draining so shutdown prints don't block the pipe
		defer close(drained)
		for sc.Scan() {
			out.WriteString(sc.Text())
			out.WriteByte('\n')
		}
	}()
	return base, func() string {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("server exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
		<-drained
		return out.String()
	}
}

func TestServeHealthAndBatch(t *testing.T) {
	base, shutdown := startScheduled(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	client := service.NewClient(base, nil)
	h, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "harpoon", Tree: h, Algorithm: "postorder"},
		{Instance: "harpoon", Tree: h, Algorithm: "minmem"},
	}
	rows, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Harpoon(3, 2, 30, 1): postorder needs 71, optimal 35.
	if rows[0].Memory != 71 || rows[1].Memory != 35 {
		t.Fatalf("wrong remote results: %+v", rows)
	}
	shutdown()
}

func TestServeWithCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "rows.paged")
	base, shutdown := startScheduled(t, "-cache", cache)
	client := service.NewClient(base, nil)
	h, err := tree.NestedHarpoon(2, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{{Instance: "h", Tree: h, Algorithm: "minmem"}}
	first, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[0] {
		t.Fatalf("cached replay not bit-identical: %+v vs %+v", first[0], second[0])
	}
	out := shutdown()
	if !strings.Contains(out, "1 cache hits, 1 misses") {
		t.Fatalf("shutdown did not report cache counters:\n%s", out)
	}
}

// A second client reads the rows the first one computed back from the
// paged store bit-identically, and the store keeps them on disk.
func TestServeWithBinaryCacheAndTransport(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "rows.paged")
	base, shutdown := startScheduled(t, "-cache", cache)
	h, err := tree.NestedHarpoon(2, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "h", Tree: h, Algorithm: "postorder"},
		{Instance: "h", Tree: h, Algorithm: "minmem"},
	}
	first, err := service.NewClient(base, nil).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := service.NewClient(base, nil).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		a, b := first[i], second[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("cached replay of row %d not bit-identical: %+v vs %+v", i, first[i], second[i])
		}
	}
	out := shutdown()
	if !strings.Contains(out, "2 cache hits, 2 misses") {
		t.Fatalf("shutdown did not report cache counters:\n%s", out)
	}
	store, err := schedule.OpenPagedStore(cache)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 2 {
		t.Fatalf("paged store reopened with %d rows, want 2", store.Len())
	}
}

// -cache keeps the result cache out of core in a paged store; a server
// restart over the same file reopens it and serves every earlier row from
// disk without re-running anything.
func TestServeWithPagedCacheAndRestart(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "rows.paged")
	base, shutdown := startScheduled(t, "-cache", cache)
	h, err := tree.NestedHarpoon(2, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "h", Tree: h, Algorithm: "postorder"},
		{Instance: "h", Tree: h, Algorithm: "minmem"},
	}
	first, err := service.NewClient(base, nil).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := shutdown()
	if !strings.Contains(out, "0 cache hits, 2 misses") {
		t.Fatalf("first server did not report the misses:\n%s", out)
	}

	base, shutdown = startScheduled(t, "-cache", cache)
	second, err := service.NewClient(base, nil).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("restarted server row %d not bit-identical: %+v vs %+v", i, first[i], second[i])
		}
	}
	out = shutdown()
	if !strings.Contains(out, "2 cache hits, 0 misses") {
		t.Fatalf("restarted server did not serve from the paged store:\n%s", out)
	}
}

// Tenant quota flags wire through: an over-rate batch is a 429 with
// Retry-After, the rejection is scrapeable from /metrics, and shutdown
// drains cleanly with the store flushed.
func TestServeWithQuotasAndMetrics(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "rows.paged")
	base, shutdown := startScheduled(t,
		"-cache", cache, "-tenant-rate", "0.5", "-tenant-burst", "2")
	client := service.NewClient(base, nil)
	client.Tenant = "acme"
	h, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "harpoon", Tree: h, Algorithm: "postorder"},
		{Instance: "harpoon", Tree: h, Algorithm: "minmem"},
	}
	if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// The bucket (burst 2) is empty and refills at 0.5/s: this is a 429.
	_, err = client.Run(context.Background(), jobs, schedule.BatchOptions{})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch: err %v, want a 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("429 without a Retry-After hint: %+v", se)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`scheduled_batches_total{outcome="ok"} 1`,
		`scheduled_batches_total{outcome="rejected"} 1`,
		`scheduled_tenant_accepted_jobs_total{tenant="acme"} 2`,
		`scheduled_tenant_rejected_jobs_total{tenant="acme",reason="rate"} 2`,
		"scheduled_cache_misses_total 2",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, scrape)
		}
	}
	out := shutdown()
	for _, want := range []string{"draining in-flight batches", "row store flushed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shutdown output missing %q:\n%s", want, out)
		}
	}
}

// -children turns the server into a front door: batches fan out over the
// child servers, results match, and the shard counters reach /metrics.
// The front door speaks the binary transport to its children, so once a
// child has a tree, later batches over it send only its reference.
func TestServeFrontDoorShard(t *testing.T) {
	childA, shutdownA := startScheduled(t)
	childB, shutdownB := startScheduled(t)
	front, shutdownFront := startScheduled(t,
		"-children", childA+","+childB, "-admit-depth", "1024")
	client := service.NewClient(front, nil)
	h, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "harpoon", Tree: h, Algorithm: "postorder"},
		{Instance: "harpoon", Tree: h, Algorithm: "minmem"},
	}
	rows, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Memory != 71 || rows[1].Memory != 35 {
		t.Fatalf("wrong fanned-out results: %+v", rows)
	}
	// Two more batches over the same tree: of three, some child serves at
	// least two, and it resolves the tree by reference in all but the first.
	for i := 0; i < 2; i++ {
		again, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again[0].Memory != 71 || again[1].Memory != 35 {
			t.Fatalf("wrong fanned-out results on batch %d: %+v", i+2, again)
		}
	}
	resolvedRE := regexp.MustCompile(`scheduled_tree_refs_total\{result="resolved"\} (\d+)`)
	resolved := false
	for _, child := range []string{childA, childB} {
		resp, err := http.Get(child + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		scrape, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if m := resolvedRE.FindStringSubmatch(string(scrape)); m != nil && m[1] != "0" {
			resolved = true
		}
	}
	if !resolved {
		t.Fatal("no child resolved a tree reference: the front door did not reference the trees it shipped")
	}
	resp, err := http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"scheduled_shard_load_sheds_total 0",
		`scheduled_shard_child_chunks_total{child="`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("front door /metrics missing %q:\n%s", want, scrape)
		}
	}
	shutdownFront()
	shutdownA()
	shutdownB()
	// -admit-depth without -children cannot work: there is no queue to measure.
	if err := run(context.Background(), []string{"-admit-depth", "8"}, io.Discard); err == nil {
		t.Fatal("-admit-depth without -children accepted")
	}
}

func TestListAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"minmem", "minmemory", "first-fit", "minio", "Liu"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, sb.String())
		}
	}
	if err := run(context.Background(), []string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &sb); err == nil {
		t.Fatal("bad address accepted")
	}
	// A cache file from a retired row-store format is refused, untouched.
	legacy := filepath.Join(t.TempDir(), "rows.jsonl")
	content := []byte(`{"key":"k","row":{"instance":"h"}}` + "\n")
	if err := os.WriteFile(legacy, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-cache", legacy}, &sb); err == nil {
		t.Fatal("legacy JSONL cache file accepted as a paged store")
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("refused cache file changed: %q, %v", got, err)
	}
}

// The server bounds how long a client may take to send a request, headers
// and body, but not how long a streamed batch response may run.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout {
		t.Fatalf("read timeouts header %v, whole request %v; want %v and %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	if readHeaderTimeout <= 0 || readHeaderTimeout > readTimeout {
		t.Fatalf("header timeout %v must be positive and within the request timeout %v", readHeaderTimeout, readTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut long streamed batches short", srv.WriteTimeout)
	}
}

// -peers push-gossips computed rows: a batch served by one server lands in
// the peer's cache, so the peer answers the same grid without recomputing,
// and both ends report the gossip at shutdown.
func TestServeGossipPeers(t *testing.T) {
	peerCache := filepath.Join(t.TempDir(), "peer-rows.paged")
	peerBase, shutdownPeer := startScheduled(t, "-cache", peerCache)
	originBase, shutdownOrigin := startScheduled(t, "-peers", peerBase)

	h, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "harpoon", Tree: h, Algorithm: "postorder"},
		{Instance: "harpoon", Tree: h, Algorithm: "minmem"},
	}
	if _, err := service.NewClient(originBase, nil).Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the gossiper, which drains the queue — so the push is
	// complete and accounted for by the time the output returns.
	out := shutdownOrigin()
	for _, want := range []string{
		"scheduled: gossiping warm rows to 1 peers",
		"scheduled: gossip pushed 2 rows (1 batches enqueued, 0 dropped, 0 errors)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("origin shutdown output missing %q:\n%s", want, out)
		}
	}
	// The gossip-warmed peer answers the same grid entirely from its cache.
	if _, err := service.NewClient(peerBase, nil).Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	out = shutdownPeer()
	if !strings.Contains(out, "2 cache hits, 0 misses") {
		t.Fatalf("gossip-warmed peer recomputed:\n%s", out)
	}

	// -gossip-queue without -peers cannot work: there is no queue to bound.
	if err := run(context.Background(), []string{"-gossip-queue", "4"}, io.Discard); err == nil {
		t.Fatal("-gossip-queue without -peers accepted")
	}
}

// A front door with -hedge-after beats a child that never answers: results
// stay correct, the hedge counters reach /metrics, and the losing child
// observes the cancellation. The stalled child is listed first, so the
// shard's first dispatch (both children unmeasured, tie to the lowest
// index) lands on it and only a hedge can complete that chunk — the
// outcome does not hinge on a latency race.
func TestServeHedgedFrontDoorBeatsSlowChild(t *testing.T) {
	childA, shutdownA := startScheduled(t)
	stalled := scheduletest.NewFaultBackend(schedule.Local{})
	stalled.SetDelay(time.Hour) // blocks until the front door cancels
	cancelled := make(chan struct{})
	var once sync.Once
	stalled.OnCancel(func(int) { once.Do(func() { close(cancelled) }) })
	slow := httptest.NewServer(service.NewServerWith(service.ServerOptions{Backend: stalled}).Handler())
	front, shutdownFront := startScheduled(t,
		"-children", slow.URL+","+childA, "-hedge-after", "25ms", "-chunk", "1")

	h2, err := tree.NestedHarpoon(2, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "h2", Tree: h2, Algorithm: "postorder"},
		{Instance: "h2", Tree: h2, Algorithm: "minmem"},
		{Instance: "h3", Tree: h3, Algorithm: "postorder"},
		{Instance: "h3", Tree: h3, Algorithm: "minmem"},
	}
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := service.NewClient(front, nil).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := want[i], got[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("hedged row %d differs from local: %+v vs %+v", i, got[i], want[i])
		}
	}

	resp, err := http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`scheduled_shard_hedge_wins_total (\d+)`).FindStringSubmatch(string(scrape))
	if m == nil || m[1] == "0" {
		t.Fatalf("front door recorded no hedge wins:\n%s", scrape)
	}
	// The loser's cancellation travels front door → HTTP → stalled child
	// after the batch has returned; wait for it to arrive.
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled child never observed the hedge loser's cancellation")
	}
	if n := stalled.Cancellations(); n < 1 {
		t.Fatalf("stalled child counted %d cancellations", n)
	}

	shutdownFront()
	slow.Close()
	shutdownA()

	// The hedging and chunking flags only mean something on a front door.
	if err := run(context.Background(), []string{"-hedge-after", "25ms"}, io.Discard); err == nil {
		t.Fatal("-hedge-after without -children accepted")
	}
	if err := run(context.Background(), []string{"-chunk", "8"}, io.Discard); err == nil {
		t.Fatal("-chunk without -children accepted")
	}
}

// -cache-max bounds the row store: the LRU overflow is deleted from the
// file, reported at shutdown, and a reopen finds only the bound.
func TestServeWithBoundedCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "rows.paged")
	base, shutdown := startScheduled(t, "-cache", cache, "-cache-max", "1")
	client := service.NewClient(base, nil)
	h2, err := tree.NestedHarpoon(2, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := tree.NestedHarpoon(3, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []schedule.Job{
		{Instance: "h2", Tree: h2, Algorithm: "minmem"},
		{Instance: "h3", Tree: h3, Algorithm: "minmem"},
	}
	if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	out := shutdown()
	if !strings.Contains(out, "1 evictions") {
		t.Fatalf("shutdown did not report the eviction:\n%s", out)
	}
	store, err := schedule.OpenPagedStoreWith(cache, schedule.StoreOptions{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 1 {
		t.Fatalf("bounded store reopened with %d rows, want 1", store.Len())
	}
}
