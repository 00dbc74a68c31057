// Command scheduled is the long-running evaluation service: it serves the
// schedule algorithm registry over the HTTP/JSON protocol of
// internal/service, so remote clients (cmd/experiments -backend http://…,
// or service.Client embedded anywhere) can list algorithms and run job
// batches without linking the solvers.
//
// With -cache the server evaluates through a content-addressed result
// cache persisted as a paged row store (an out-of-core block file with a
// B-tree index: rows are served from disk through a bounded page cache, so
// the store can be far larger than RAM and opens in O(1) instead of
// loading every row), so repeated grids over the same instances are
// answered without re-running the algorithms. -cache-max bounds the store:
// beyond that many rows the least-recently-used entries are deleted in
// place through the store's free list, so a long-lived server's store does
// not grow without bound. The same store backs the
// /v1/warm endpoint: rows a shard (or a sibling server) computed elsewhere
// are pushed in and answer later batches here, so a fleet of cached servers
// converges on one warm working set.
//
// The server is multi-tenant: callers name their tenant in the X-Tenant
// header, upload trees to a per-tenant corpus on /v1/trees, and are
// admission-controlled per tenant. -tenant-rate and -tenant-burst shape a
// token bucket in jobs per second, -tenant-queue bounds each tenant's
// admitted-but-unfinished jobs and -tenant-trees bounds its corpus;
// over-limit batches are rejected with 429 and a Retry-After hint that
// service.Client honors. -concurrency lifts the one-batch-at-a-time
// evaluation bound. Everything — batch outcomes, cache and store counters,
// per-tenant admission stats — is scrapeable from /metrics in the
// Prometheus text format.
//
// With -children the server is a front door: batches fan out over the
// named child servers through the shard scheduler instead of evaluating
// locally, and -admit-depth sheds work with 429 when every healthy child's
// queue is already that deep. -chunk re-cuts each client batch into chunks
// of that many jobs (default 64), so the scheduler has enough pieces to
// spread; -hedge-after enables speculative re-dispatch of straggler
// chunks — a chunk running past max(-hedge-after, -hedge-multiple × the
// child's predicted completion time) is raced on a second healthy child,
// the first result wins and the loser is cancelled. The shard's scheduling
// counters (including hedges and hedge wins) then appear on /metrics too.
//
// With -peers the server push-gossips its results: after every successful
// batch the computed rows are offered, keyed by cache key, to each peer's
// /v1/warm endpoint through a bounded per-peer queue (-gossip-queue
// batches). A slow or dead peer drops warm batches instead of slowing the
// serving path, and rows received on /v1/warm are never re-gossiped, so
// fleets of cached servers heat each other without loops and without a
// shard in the middle.
//
// On SIGINT/SIGTERM the server drains: in-flight batches finish (bounded
// by -drain), the row store is flushed and closed, and the process exits 0.
//
// Usage:
//
//	scheduled -addr 127.0.0.1:8080
//	scheduled -addr :9090 -workers 8 -cache rows.paged -cache-max 100000
//	scheduled -addr :8080 -tenant-rate 500 -tenant-burst 2000 -tenant-queue 5000
//	scheduled -addr :8080 -children http://10.0.0.1:9090,http://10.0.0.2:9090 -admit-depth 256
//	scheduled -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tenant"

	// Register every MinMemory solver and MinIO policy/oracle.
	_ "repro/internal/minio"
	_ "repro/internal/traversal"
)

// The server's read timeouts: fixed, since a slow or stalled client must
// not hold a connection however the server is configured.
const (
	// readHeaderTimeout bounds sending the request line and headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request, body included: room for
	// a maximal 64 MiB batch body at about 0.5 MB/s.
	readTimeout = 2 * time.Minute
)

// newHTTPServer builds the server around h with the fixed read timeouts.
// It sets no WriteTimeout: a batch response streams rows for as long as
// the batch evaluates, which the client's cancellation and the drain bound
// limit instead. The read deadline does not cut a long batch short either:
// net/http clears it once the request body has been read.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scheduled:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scheduled", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "per-batch worker-pool bound (0 = GOMAXPROCS)")
	concurrency := fs.Int("concurrency", 0, "batches evaluated at once (0 = 1, strict serialization)")
	cache := fs.String("cache", "", "row-store path; evaluate through a content-addressed result cache")
	cacheMax := fs.Int("cache-max", 0, "row-store entry bound: LRU-evict beyond this many rows (0 = unbounded)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant token-bucket refill, jobs/sec (0 = no rate limit)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant token-bucket capacity in jobs (0 = max(rate, 64))")
	tenantQueue := fs.Int("tenant-queue", 0, "per-tenant bound on admitted-but-unfinished jobs (0 = unbounded)")
	tenantTrees := fs.Int("tenant-trees", 0, "per-tenant corpus bound in distinct trees (0 = unbounded)")
	children := fs.String("children", "", "comma-separated child server URLs; fan batches out over them instead of evaluating locally")
	admitDepth := fs.Int("admit-depth", 0, "shed batches with 429 when every healthy child queues this many jobs (0 = never; needs -children)")
	chunk := fs.Int("chunk", 0, "front-door chunk size: re-cut client batches into chunks of this many jobs (0 = engine default; needs -children)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge straggler chunks after this floor delay (0 = no hedging; needs -children)")
	hedgeMultiple := fs.Float64("hedge-multiple", 0, "hedge a chunk running this many times past its predicted completion (0 = default; needs -hedge-after)")
	peers := fs.String("peers", "", "comma-separated peer server URLs; push computed rows to their /v1/warm caches after each batch")
	gossipQueue := fs.Int("gossip-queue", 0, "per-peer bound on queued warm batches; full queues drop, never block (0 = default)")
	drain := fs.Duration("drain", 5*time.Second, "shutdown bound on draining in-flight batches")
	list := fs.Bool("list", false, "list the registered algorithms and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range schedule.Names() {
			alg, err := schedule.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-20s %-10s %s\n", name, alg.Kind(), schedule.DisplayName(name))
		}
		return nil
	}

	var backend schedule.Backend = schedule.Local{}
	var shard *schedule.Shard
	if *children != "" {
		var kids []schedule.Backend
		for _, url := range strings.Split(*children, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			c := service.NewClient(url, nil)
			c.Retries = 2
			kids = append(kids, c)
		}
		var err error
		shard, err = schedule.NewShardWith(schedule.ShardOptions{
			MaxQueueDepth: *admitDepth,
			HedgeAfter:    *hedgeAfter,
			HedgeMultiple: *hedgeMultiple,
			ChunkSize:     *chunk,
		}, kids...)
		if err != nil {
			return err
		}
		backend = shard
		fmt.Fprintf(w, "scheduled: front door over %d children (admit depth %d, hedge after %v)\n",
			len(kids), *admitDepth, *hedgeAfter)
	} else {
		switch {
		case *admitDepth != 0:
			return fmt.Errorf("-admit-depth needs -children: a local backend has no child queues to measure")
		case *hedgeAfter != 0:
			return fmt.Errorf("-hedge-after needs -children: a local backend has no siblings to hedge on")
		case *chunk != 0:
			return fmt.Errorf("-chunk needs -children: only the front-door shard re-chunks batches")
		}
	}

	var cached *schedule.Cached
	var store *schedule.PagedStore
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	if *cache != "" {
		var err error
		store, err = schedule.OpenPagedStoreWith(*cache, schedule.StoreOptions{MaxEntries: *cacheMax})
		if err != nil {
			return err
		}
		cached = schedule.NewCached(backend, store)
		backend = cached
		fmt.Fprintf(w, "scheduled: row store %s holds %d rows\n", *cache, store.Len())
	}

	var gossip *service.Gossiper
	if *peers != "" {
		var warmers []schedule.RowWarmer
		var names []string
		for _, url := range strings.Split(*peers, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			warmers = append(warmers, service.NewClient(url, nil))
			names = append(names, url)
		}
		gossip = service.NewGossiper(service.GossiperOptions{QueueBound: *gossipQueue}, warmers...)
		defer gossip.Close()
		fmt.Fprintf(w, "scheduled: gossiping warm rows to %d peers (%s)\n", len(names), strings.Join(names, ", "))
	} else if *gossipQueue != 0 {
		return fmt.Errorf("-gossip-queue needs -peers: there is no queue without peers to push to")
	}

	tenants := tenant.NewRegistry(tenant.Limits{
		RatePerSec: *tenantRate,
		Burst:      *tenantBurst,
		MaxQueued:  *tenantQueue,
		MaxTrees:   *tenantTrees,
	})
	if *tenantRate > 0 || *tenantQueue > 0 || *tenantTrees > 0 {
		fmt.Fprintf(w, "scheduled: tenant quotas rate %g/s burst %d queue %d trees %d\n",
			*tenantRate, *tenantBurst, *tenantQueue, *tenantTrees)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheduled: listening on http://%s (%d algorithms, backend %s)\n",
		ln.Addr(), len(schedule.Names()), backend.Capabilities().Name)
	// Without -cache, /v1/warm must see a nil Store, not a nil *PagedStore.
	var warmStore schedule.Store
	if store != nil {
		warmStore = store
	}
	srv := newHTTPServer(service.NewServerWith(service.ServerOptions{
		Backend:     backend,
		Workers:     *workers,
		Store:       warmStore,
		Tenants:     tenants,
		Concurrency: *concurrency,
		Cache:       cached,
		Rows:        store,
		Shard:       shard,
		Gossip:      gossip,
	}).Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight batches finish (bounded), then
	// flush the store. A stuck drain force-closes but still exits cleanly —
	// the store flush below is what must not be skipped.
	fmt.Fprintf(w, "scheduled: draining in-flight batches (up to %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		fmt.Fprintf(w, "scheduled: drain timed out after %v; connections closed\n", *drain)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	if cached != nil {
		hits, misses := cached.Counters()
		fmt.Fprintf(w, "scheduled: served %d cache hits, %d misses, %d evictions\n", hits, misses, store.Evictions())
	}
	if gossip != nil {
		// Close before reporting so queued warm batches drain into the
		// counters; the deferred Close then finds it already closed.
		gossip.Close()
		gs := gossip.Stats()
		fmt.Fprintf(w, "scheduled: gossip pushed %d rows (%d batches enqueued, %d dropped, %d errors)\n",
			gs.SentRows, gs.EnqueuedBatches, gs.DroppedBatches, gs.Errors)
	}
	if store != nil {
		s := store
		store = nil
		if err := s.Close(); err != nil {
			return fmt.Errorf("closing row store: %w", err)
		}
		fmt.Fprintf(w, "scheduled: row store flushed\n")
	}
	return nil
}
