package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/schedule/scheduletest"
	"repro/internal/service"
)

// Push gossip end to end: a server that computes a batch forwards the rows
// to its peer's /v1/warm, so the peer answers the same grid entirely from
// its store — nonzero cache hits with no shard in the loop — and the
// origin's /metrics account for the pushed rows.
func TestGossipWarmsPeerCache(t *testing.T) {
	jobs := testJobs(t)

	peerStore := schedule.NewMemStore()
	peerCached := schedule.NewCached(schedule.Local{}, peerStore)
	peerSrv := httptest.NewServer(service.NewServerWith(service.ServerOptions{
		Backend: peerCached,
		Store:   peerStore,
	}).Handler())
	defer peerSrv.Close()

	gossip := service.NewGossiper(service.GossiperOptions{},
		service.NewClient(peerSrv.URL, peerSrv.Client()))
	defer gossip.Close()
	origin := httptest.NewServer(service.NewServerWith(service.ServerOptions{Gossip: gossip}).Handler())
	defer origin.Close()

	if _, err := service.NewClient(origin.URL, origin.Client()).
		Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// Close drains the queue and waits for the push workers, so the warm
	// push is complete — no polling.
	gossip.Close()
	if peerStore.Len() != len(jobs) {
		t.Fatalf("peer store holds %d rows after gossip, want %d", peerStore.Len(), len(jobs))
	}
	g := gossip.Stats()
	if g.SentRows != int64(len(jobs)) || g.Errors != 0 || g.DroppedBatches != 0 {
		t.Fatalf("gossip stats %+v, want %d rows sent cleanly", g, len(jobs))
	}

	// The warmed peer serves the whole grid from its store.
	if _, err := service.NewClient(peerSrv.URL, peerSrv.Client()).
		Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := peerCached.Counters(); misses != 0 || hits != int64(len(jobs)) {
		t.Fatalf("gossip-warmed peer recomputed: %d hits, %d misses", hits, misses)
	}

	// The origin's exposition carries the gossip families.
	resp, err := http.Get(origin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("scheduled_gossip_rows_sent_total %d", len(jobs)),
		`scheduled_gossip_batches_total{outcome="enqueued"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// gateWarmer is a peer whose WarmRows calls block until the gate opens —
// the "slow peer" in the backpressure test. started closes when the push
// worker is committed to the first (dequeued) batch.
type gateWarmer struct {
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
	rows    atomic.Int64
}

func (w *gateWarmer) WarmRows(ctx context.Context, entries []schedule.WarmEntry) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.gate
	w.rows.Add(int64(len(entries)))
	return len(entries), nil
}

// errWarmer is a dead peer: every push fails.
type errWarmer struct{}

func (errWarmer) WarmRows(context.Context, []schedule.WarmEntry) (int, error) {
	return 0, errors.New("peer down")
}

// Backpressure: a stalled peer costs dropped batches, never a blocked
// Offer. With the worker pinned on one batch and the queue bound at two,
// exactly two more offers enqueue and everything beyond that drops — all
// counted deterministically — and what was queued still lands once the
// peer recovers.
func TestGossipBackpressureDropsInsteadOfBlocking(t *testing.T) {
	jobs := testJobs(t)[:1]
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := schedule.NewWarmEntries(jobs, rows)

	peer := &gateWarmer{started: make(chan struct{}), gate: make(chan struct{})}
	gossip := service.NewGossiper(service.GossiperOptions{QueueBound: 2}, peer)

	gossip.Offer(batch)
	select {
	case <-peer.started:
	case <-time.After(5 * time.Second):
		t.Fatal("push worker never dequeued the first batch")
	}
	// Worker pinned, queue empty: two offers fill the queue, three drop.
	for i := 0; i < 5; i++ {
		gossip.Offer(batch)
	}
	g := gossip.Stats()
	if g.EnqueuedBatches != 3 || g.DroppedBatches != 3 {
		t.Fatalf("gossip stats %+v, want 3 enqueued and 3 dropped", g)
	}

	// The peer recovers; Close drains the two queued batches and the pinned
	// one, so 3 batches × 1 row land.
	close(peer.gate)
	gossip.Close()
	if got := peer.rows.Load(); got != 3 {
		t.Fatalf("recovered peer received %d rows, want 3", got)
	}
	if g := gossip.Stats(); g.SentRows != 3 {
		t.Fatalf("gossip stats after drain %+v, want 3 rows sent", g)
	}

	// A dead peer costs counted errors, nothing else: offers still return
	// immediately and Close still terminates.
	dead := service.NewGossiper(service.GossiperOptions{}, errWarmer{})
	dead.Offer(batch)
	dead.Close()
	if g := dead.Stats(); g.Errors != 1 || g.SentRows != 0 {
		t.Fatalf("dead-peer stats %+v, want exactly 1 error", g)
	}
}

// An offer that arrives after Close — a batch finishing while the server
// drains — is not sent, but it is not lost silently either: it counts one
// dropped batch per peer.
func TestGossipOfferAfterCloseCountsDrops(t *testing.T) {
	jobs := testJobs(t)[:1]
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two peers whose pushes would fail: a leaked offer shows as an error.
	gossip := service.NewGossiper(service.GossiperOptions{}, errWarmer{}, errWarmer{})
	gossip.Close()
	gossip.Offer(schedule.NewWarmEntries(jobs, rows))
	if g := gossip.Stats(); g.DroppedBatches != 2 || g.EnqueuedBatches != 0 || g.Errors != 0 {
		t.Fatalf("post-Close offer stats %+v, want 2 dropped and nothing enqueued or pushed", g)
	}
}

// Cancelling the client's context must reach the server mid-request: the
// in-flight HTTP batch aborts, the handler's request context dies, and the
// backend under it observes the cancellation — the mechanism a hedged
// shard relies on to release the losing child. Client.Run itself must
// surface the cancellation, not a transport error.
func TestClientCancellationReachesServerBackend(t *testing.T) {
	jobs := testJobs(t)[:3]
	fault := scheduletest.NewFaultBackend(schedule.Local{})
	fault.SetDelay(10 * time.Second)
	observed := make(chan int, 1)
	fault.OnCancel(func(call int) { observed <- call })
	client := startServer(t, fault)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.Run(ctx, jobs, schedule.BatchOptions{})
		done <- err
	}()
	// Cancel only once the batch is stalled inside the server's backend.
	deadline := time.Now().Add(5 * time.Second)
	for fault.Runs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never reached the server backend")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client.Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client.Run did not return after cancellation")
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("server backend never observed the client's cancellation")
	}
	if fault.Cancellations() != 1 {
		t.Fatalf("server backend counted %d cancellations, want 1", fault.Cancellations())
	}
}

// The hedge race over real HTTP: a server that turns slow mid-grid loses
// every later chunk to a hedged re-dispatch, its handler observes the
// loser's cancellation server-side, and the merged rows stay bit-identical
// to Local.
func TestHedgedShardOverHTTPCancelsLoser(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// From its second call on the slow server stalls until cancelled, so
	// every chunk it holds can only finish through a hedge.
	slowFault := scheduletest.NewFaultBackend(schedule.Local{})
	slowFault.SlowAfter(1, time.Hour)
	cancelled := make(chan struct{})
	var once sync.Once
	slowFault.OnCancel(func(int) { once.Do(func() { close(cancelled) }) })
	slowSrv := httptest.NewServer(service.NewServer(slowFault, 0).Handler())
	defer slowSrv.Close()
	fastSrv := httptest.NewServer(service.NewServer(nil, 0).Handler())
	defer fastSrv.Close()

	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		Policy:         schedule.PolicyRoundRobin,
		HedgeAfter:     20 * time.Millisecond,
		QuarantineBase: time.Millisecond,
	},
		service.NewClient(slowSrv.URL, slowSrv.Client()),
		service.NewClient(fastSrv.URL, fastSrv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	rowsEqualNoTime(t, "hedged HTTP shard vs local", sank.Rows(), local)
	c := shard.Counters()
	if c.HedgeWins < 1 {
		t.Fatalf("slow server was never beaten: counters %+v", c)
	}
	// The cancellation reaches the server's backend after the stream has
	// returned; wait for it.
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("the losing server's handler never observed the cancellation")
	}
}

// Hedged dispatch and gossip warming running together, concurrently, with
// the gossip landing in a paged (on-disk) store — the composition CI's
// race-detector job pins: two grids stream at once through a hedged shard
// whose fast child gossips every computed chunk to an out-of-core peer.
func TestHedgedShardGossipsIntoPagedStore(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peerClient, peerStore := startPagedServer(t, filepath.Join(t.TempDir(), "rows.paged"))
	_ = peerClient
	gossip := service.NewGossiper(service.GossiperOptions{}, peerClient)
	defer gossip.Close()

	fastSrv := httptest.NewServer(service.NewServerWith(service.ServerOptions{Gossip: gossip}).Handler())
	defer fastSrv.Close()
	slowFault := scheduletest.NewFaultBackend(schedule.Local{})
	slowFault.SlowAfter(1, 60*time.Millisecond)
	slowSrv := httptest.NewServer(service.NewServer(slowFault, 0).Handler())
	defer slowSrv.Close()

	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		Policy:         schedule.PolicyRoundRobin,
		HedgeAfter:     10 * time.Millisecond,
		QuarantineBase: time.Millisecond,
	},
		service.NewClient(slowSrv.URL, slowSrv.Client()),
		service.NewClient(fastSrv.URL, fastSrv.Client()))
	if err != nil {
		t.Fatal(err)
	}

	const streams = 2
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
		rowsEqualNoTime(t, fmt.Sprintf("hedged gossiping stream %d vs local", i), sinks[i].Rows(), local)
	}
	gossip.Close()
	if peerStore.Len() == 0 {
		t.Fatal("gossip landed no rows in the paged peer store")
	}
	if g := gossip.Stats(); g.Errors != 0 {
		t.Fatalf("gossip stats %+v, want no push errors", g)
	}
}
