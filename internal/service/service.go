// Package service exposes the schedule algorithm registry as a long-running
// HTTP evaluation service, plus the client that speaks to it. The server
// side is a plain http.Handler (cmd/scheduled serves it); the Client
// implements schedule.Backend, so a remote server slots into any code that
// evaluates grids through the Backend interface.
//
// Wire protocol (versioned under /v1):
//
//	GET  /healthz        → {"status":"ok","algorithms":N}
//	GET  /v1/algorithms  → JSON array of {name, kind, display}
//	POST /v1/batch       → request: Content-Type application/x-schedule-batch,
//	                       the 'B' form — workers, a tree table (each tree
//	                       inline or as a 32-byte digest reference), an
//	                       order table, then the jobs indexing both
//	                       response: application/x-schedule-rows, the 'b'
//	                       form — one row frame per completed job in
//	                       completion order, terminated by a done frame
//	                       (row count) or an error frame (message).
//	                       Any other request Content-Type gets 415; a
//	                       reference that resolves nowhere gets 409.
//	POST /v1/warm        → request: {"entries": [{key, row}, …]}
//	                       response: {"stored": N}
//	GET  /metrics        → Prometheus text exposition of the server's
//	                       counters (see metrics.go)
//
// binary.go specifies both batch forms byte by byte. A batch carries each
// distinct tree and each distinct order slice once, so a grid of J jobs
// over T trees serializes each tree once, not J times, and a tree the
// server already holds travels as a reference. The trailing done/error
// frame is mandatory: rows stream as they complete, so the HTTP status is
// already committed when a late job fails, and a client must treat a stream
// without a terminator as truncated.
//
// # Tenancy and admission control
//
// Every request may carry an X-Tenant header naming the caller's tenant
// (empty means "default"). A batch references a tree by its 32-byte
// digest, resolved against the trees the server retained from earlier
// batches of the same tenant (see binary.go). Retained trees are a cache
// bounded per server: eviction costs the owner one inline resend, and a
// tenant never resolves another tenant's digest.
//
// Before a batch commits its response stream the server runs admission
// control: first the backend's verdict (schedule.Admitter — a shard sheds
// load when every healthy child's queue is deep), then the tenant's token
// bucket and queue-depth quota (internal/tenant). Over-limit work is
// rejected with 429 and a Retry-After header (integer seconds) before any
// response bytes stream, so a rejected batch is cheap for both sides;
// Client honors the header by delaying its retry at least that long.
//
// /v1/warm is the sink of push gossip: a sibling server's Gossiper (or any
// client, as perfbench's setup does) pushes rows computed elsewhere, keyed
// by schedule.CacheKey, and a server configured with a row store
// (ServerOptions.Store, cmd/scheduled -cache) stores them so the same jobs
// are answered here without recomputation. Each entry is checked against
// its key's algorithm, budget and kind (schedule.CheckWarmEntry), but the
// row itself is not recomputed: a WarmEntry carries the tree's digest, not
// the tree. A server without a store accepts the push and stores
// nothing ({"stored": 0}) — warming a cacheless server is a no-op, not an
// error. The row cache is content-addressed and therefore shared across
// tenants by design — equal trees produce equal rows, so there is nothing
// tenant-specific to leak — and /v1/warm is likewise tenant-unscoped.
//
// With ServerOptions.Gossip (cmd/scheduled -peers) the server is also a
// warm-push source: after each successful batch it offers the batch's
// keyed rows to its peers' /v1/warm endpoints through the Gossiper's
// bounded, drop-on-backpressure queues, so caches heat fleet-wide. Rows
// received on /v1/warm are stored but never re-gossiped, so a warm push
// cannot circulate forever between peers.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
	"repro/internal/tenant"
	"repro/internal/tree"
)

// TenantHeader is the HTTP header naming the caller's tenant. An absent
// or empty header selects the "default" tenant.
const TenantHeader = "X-Tenant"

// AlgorithmInfo describes one registry entry on the wire.
type AlgorithmInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Display string `json:"display"`
}

// WarmRequest is the body of POST /v1/warm: rows computed elsewhere, keyed
// by schedule.CacheKey, offered to this server's row store.
type WarmRequest struct {
	Entries []schedule.WarmEntry `json:"entries"`
}

// WarmResponse is the body of the POST /v1/warm response.
type WarmResponse struct {
	// Stored is the number of entries accepted into the store (0 when the
	// server has no store).
	Stored int `json:"stored"`
}

// maxBatchBytes bounds a batch request body (64 MiB — a grid over Section
// VI's full-scale suite is well under 10 MiB on the wire).
const maxBatchBytes = 64 << 20

// Server answers the evaluation API over a schedule.Backend.
type Server struct {
	backend schedule.Backend
	workers int
	store   schedule.Store
	tenants *tenant.Registry
	// Metrics sources beyond the backend: set from ServerOptions so
	// /metrics can export the cache, row-store and shard counters without
	// unwrapping backend decorators.
	cache  *schedule.Cached
	rows   *schedule.PagedStore
	shard  *schedule.Shard
	gossip *Gossiper
	// evalSem bounds concurrent batch evaluations (ServerOptions.
	// Concurrency, default 1 — strictly serialized): the workers bound is
	// per server, not per request, so concurrent submissions (several
	// clients, or one client streaming chunks in flight) queue instead of
	// each spinning up their own worker pool. The wait is context-aware,
	// so a client that disconnects while queued releases its slot.
	evalSem chan struct{}
	// retained holds the trees decoded from inline binary batch entries,
	// keyed by tenant and digest, so later batches reference them.
	retained nodeLRU[retainKey, *tree.Tree]

	batchesOK       atomic.Int64
	batchesFailed   atomic.Int64
	batchesRejected atomic.Int64
	rowsStreamed    atomic.Int64
	refsResolved    atomic.Int64
	refsUnknown     atomic.Int64
}

// retainKey names a retained tree: a tenant never resolves another
// tenant's digest.
type retainKey struct {
	tenant string
	digest tree.Digest
}

// batchTrees is the treeResolver of one binary batch: references resolve
// against the server's retained trees for the tenant, and inline trees are
// retained.
type batchTrees struct {
	s      *Server
	tenant string
}

func (b batchTrees) resolve(d tree.Digest) (*tree.Tree, bool) {
	t, ok := b.s.retained.get(retainKey{b.tenant, d})
	if ok {
		b.s.refsResolved.Add(1)
	} else {
		b.s.refsUnknown.Add(1)
	}
	return t, ok
}

func (b batchTrees) adopt(t *tree.Tree) *tree.Tree {
	return b.s.retained.add(retainKey{b.tenant, t.Digest()}, t, t.Len())
}

// ServerOptions configures NewServerWith.
type ServerOptions struct {
	// Backend evaluates the batches (nil selects schedule.Local).
	Backend schedule.Backend
	// Workers bounds each batch's worker pool unless the request asks for
	// fewer (≤ 0: GOMAXPROCS). The bound is per evaluation slot, so with
	// Concurrency 1 (the default) concurrent submissions cannot multiply
	// the pool.
	Workers int
	// Store, when non-nil, receives rows pushed to /v1/warm — normally the
	// same row store the backend's cache reads, so warmed rows answer later
	// batches. A nil store keeps /v1/warm a no-op.
	Store schedule.Store
	// Tenants is the admission registry: every batch is charged against
	// its tenant's token bucket and queue quota. Nil selects a fresh
	// unlimited registry, so tenants stay namespaced (never rejected) on
	// servers that configure no quotas.
	Tenants *tenant.Registry
	// Concurrency is the number of batches evaluated at once (≤ 0: 1,
	// strict serialization — the historical behavior). Raising it trades
	// the single-batch worker bound for cross-batch parallelism; Workers
	// still bounds each batch's own pool.
	Concurrency int
	// Cache, when non-nil, exposes the cached backend's hit/miss counters
	// on /metrics; it should be the Cached decorator inside Backend.
	Cache *schedule.Cached
	// Rows, when non-nil, exposes the row store's size, eviction count and
	// commit counters on /metrics; normally the paged store behind both
	// Store and Cache.
	Rows *schedule.PagedStore
	// Shard, when non-nil, exposes the shard's scheduling counters and
	// per-child stats on /metrics; it should be the Shard inside Backend
	// (a front-door server fanning out to children).
	Shard *schedule.Shard
	// Gossip, when non-nil, receives each successful batch's keyed rows
	// (schedule.NewWarmEntries) for push-warming peer caches. The offer is
	// non-blocking — a slow peer drops batches, it never slows a batch
	// response — and its counters appear on /metrics. The server does not
	// own the gossiper: the caller Closes it on shutdown.
	Gossip *Gossiper
}

// NewServerWith builds a server from the options.
func NewServerWith(opt ServerOptions) *Server {
	if opt.Backend == nil {
		opt.Backend = schedule.Local{}
	}
	if opt.Tenants == nil {
		opt.Tenants = tenant.NewRegistry(tenant.Limits{})
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 1
	}
	return &Server{
		backend: opt.Backend,
		workers: opt.Workers,
		store:   opt.Store,
		tenants: opt.Tenants,
		cache:   opt.Cache,
		rows:    opt.Rows,
		shard:   opt.Shard,
		gossip:  opt.Gossip,
		evalSem: make(chan struct{}, opt.Concurrency),
	}
}

// Handler returns the routed http.Handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/warm", s.handleWarm)
	return mux
}

// writeRetryAfter rejects a request with 429 and a Retry-After header of
// ceil(after) whole seconds (at least 1 — the header has one-second
// granularity and 0 would read as "retry immediately").
func writeRetryAfter(w http.ResponseWriter, after time.Duration, msg string) {
	secs := int(math.Ceil(after.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, msg, http.StatusTooManyRequests)
}

// handleWarm accepts rows computed elsewhere into the server's row store.
// Every entry is checked before any is stored; a server without a store
// accepts the push and stores nothing.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	entries, err := decodeWarm(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stored := 0
	if s.store != nil {
		for _, e := range entries {
			if err := s.store.Put(e.Key, e.Row); err != nil {
				http.Error(w, "store warm entry: "+err.Error(), http.StatusInternalServerError)
				return
			}
			stored++
		}
	}
	writeJSON(w, http.StatusOK, WarmResponse{Stored: stored})
}

// decodeWarm reads a WarmRequest body one entry at a time and checks each
// entry (schedule.CheckWarmEntry) as it decodes, so a body padded with
// malformed entries is refused at the first of them instead of after
// decoding them all. As with json.Decoder.Decode into a WarmRequest, other
// fields are ignored, the key matches case-insensitively, a missing or
// null entries list is empty and only the body's first value is read.
func decodeWarm(r io.Reader) ([]schedule.WarmEntry, error) {
	bad := func(err error) error { return fmt.Errorf("bad warm request: %w", err) }
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, bad(err)
	}
	if tok == nil {
		return nil, nil
	}
	if tok != json.Delim('{') {
		return nil, bad(fmt.Errorf("body is %v, not an object", tok))
	}
	var entries []schedule.WarmEntry
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, bad(err)
		}
		if name, _ := key.(string); !strings.EqualFold(name, "entries") {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, bad(err)
			}
			continue
		}
		if tok, err = dec.Token(); err != nil {
			return nil, bad(err)
		}
		entries = entries[:0]
		if tok == nil {
			continue
		}
		if tok != json.Delim('[') {
			return nil, bad(fmt.Errorf("entries is %v, not an array", tok))
		}
		for i := 0; dec.More(); i++ {
			entries = append(entries, schedule.WarmEntry{})
			if err := dec.Decode(&entries[i]); err != nil {
				return nil, bad(err)
			}
			if err := schedule.CheckWarmEntry(entries[i]); err != nil {
				return nil, fmt.Errorf("warm entry %d: %w", i, err)
			}
		}
		if _, err := dec.Token(); err != nil {
			return nil, bad(err)
		}
	}
	if _, err := dec.Token(); err != nil {
		return nil, bad(err)
	}
	return entries, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"backend":    s.backend.Capabilities().Name,
		"algorithms": len(schedule.Names()),
	})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var infos []AlgorithmInfo
	for _, name := range schedule.Names() {
		alg, err := schedule.Lookup(name)
		if err != nil {
			continue // unregistered between Names and Lookup: impossible today
		}
		infos = append(infos, AlgorithmInfo{Name: name, Kind: alg.Kind().String(), Display: schedule.DisplayName(name)})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !isBinaryBatch(r.Header.Get("Content-Type")) {
		http.Error(w, "batch requests must be Content-Type "+ContentTypeBinaryBatch, http.StatusUnsupportedMediaType)
		return
	}
	// Only the name until admission: the registry resolves and charges the
	// tenant in one step, so no handle outlives a dropped idle tenant.
	ten := tenant.Canonical(r.Header.Get(TenantHeader))
	w.Header().Set(TreeRefsHeader, "1")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	jobs, reqWorkers, err := decodeBatchBinary(data, batchTrees{s, ten})
	var unknown *unknownTreesError
	if errors.As(err, &unknown) {
		writeUnknownTrees(w, unknown, ten)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request can narrow the server's worker bound, never widen it: a
	// remote client must not be able to oversubscribe the server.
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reqWorkers > 0 && reqWorkers < workers {
		workers = reqWorkers
	}

	// Admission control, before the 200 stream commits: a rejected batch
	// costs a status line, not an evaluation. The backend's verdict runs
	// first — when the whole fleet is backed up, the batch is shed without
	// charging the tenant's token bucket for work that cannot run.
	if a, ok := s.backend.(schedule.Admitter); ok {
		if err := a.Admit(len(jobs)); err != nil {
			var oe *schedule.OverloadError
			after := time.Second
			if errors.As(err, &oe) {
				after = oe.RetryAfter
			}
			s.tenants.RecordOverload(ten, len(jobs))
			s.batchesRejected.Add(1)
			writeRetryAfter(w, after, err.Error())
			return
		}
	}
	release, err := s.tenants.Admit(ten, len(jobs))
	if err != nil {
		var re *tenant.RetryError
		after := time.Second
		if errors.As(err, &re) {
			after = re.After
		}
		s.batchesRejected.Add(1)
		writeRetryAfter(w, after, err.Error())
		return
	}
	defer release()

	// From here on the response is a committed 200 stream; failures travel
	// as a trailing error frame, not a status code.
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", ContentTypeBinaryRows)
	w.WriteHeader(http.StatusOK)
	resp := &binaryResponder{w: w, flusher: flusher}
	if flusher != nil {
		flusher.Flush() // commit the stream while (possibly) queued
	}
	select {
	case s.evalSem <- struct{}{}:
		defer func() { <-s.evalSem }()
	case <-r.Context().Done():
		resp.fail(r.Context().Err().Error())
		return
	}
	rows, err := s.backend.Run(r.Context(), jobs, schedule.BatchOptions{
		Workers:      workers,
		OnRowIndexed: resp.row,
	})
	// Free the quota slots before the terminator (release is idempotent;
	// the defer covers the other paths): a client that has read it may
	// send its next batch at once and must find this batch's slots free.
	release()
	if err != nil {
		s.batchesFailed.Add(1)
		resp.fail(err.Error())
		return
	}
	s.batchesOK.Add(1)
	s.rowsStreamed.Add(int64(len(rows)))
	if s.gossip != nil {
		// Before the terminator: once the client sees it, it may shut the
		// server down and close the gossiper, so an offer made after it
		// could be lost on drain. The offer itself never blocks.
		s.gossip.Offer(schedule.NewWarmEntries(jobs, rows))
	}
	resp.done(len(rows))
}

// writeUnknownTrees answers a batch whose references resolve
// nowhere: 409 with the missing digests, before any stream commits.
func writeUnknownTrees(w http.ResponseWriter, e *unknownTreesError, ten string) {
	body := unknownTreesBody{
		Error:   fmt.Sprintf("%v for tenant %q: resend them inline", e, ten),
		Missing: make([]string, len(e.digests)),
	}
	for i, d := range e.digests {
		body.Missing[i] = d.String()
	}
	writeJSON(w, http.StatusConflict, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
