// Package service exposes the schedule algorithm registry as a long-running
// HTTP/JSON evaluation service, plus the client that speaks to it. The
// server side is a plain http.Handler (cmd/scheduled serves it); the Client
// implements schedule.Backend, so a remote server slots into any code that
// evaluates grids through the Backend interface.
//
// Wire protocol (versioned under /v1):
//
//	GET  /healthz        → {"status":"ok","algorithms":N}
//	GET  /v1/algorithms  → JSON array of {name, kind, display}
//	POST /v1/batch       → request: {"trees": {id: <.tree text>},
//	                                 "jobs": [{instance, tree, algorithm,
//	                                           order?, memory?, window?}],
//	                                 "workers"?: N}
//	                       response: JSON Lines, one line per completed job
//	                       in completion order — {"index": i, "row": {…}} —
//	                       terminated by {"done": true, "count": N} on
//	                       success or {"error": "…"} on failure.
//	POST /v1/warm        → request: {"entries": [{key, row}, …]}
//	                       response: {"stored": N}
//	POST /v1/trees       → request: {"trees": [<.tree text>, …]}
//	                       response: {"digests": [hex…], "added": N,
//	                                  "deduped": M}
//	GET  /v1/trees       → {"digests": [hex…]} (the tenant's corpus)
//	GET  /metrics        → Prometheus text exposition of the server's
//	                       counters (see metrics.go)
//
// Trees travel in the .tree wire form of internal/tree (text, one node per
// line) and are referenced by id from jobs, so a grid of J jobs over T
// trees serializes each tree once, not J times. The trailing done/error
// line is mandatory: rows stream as they complete, so the HTTP status is
// already committed when a late job fails, and a client must treat a stream
// without a terminator as truncated.
//
// # Tenancy and admission control
//
// Every request may carry an X-Tenant header naming the caller's tenant
// (empty means "default"). Each tenant owns an isolated tree corpus:
// POST /v1/trees uploads .tree instances once, deduplicated by
// tree.Digest, and a JSON batch job may then reference a corpus tree by
// its 64-hex digest in the "tree" field instead of an id into the
// request's inline map (the inline map wins when an id is present in
// both). A binary batch references a tree by its 32-byte digest, resolved
// against the trees the server retained from earlier binary batches of
// the same tenant and then against the corpus (see binary.go). Retained
// trees are a cache bounded per server, never a second corpus: eviction
// costs the owner one inline resend, and a tenant never resolves another
// tenant's digest.
//
// Before a batch commits its response stream the server runs admission
// control: first the backend's verdict (schedule.Admitter — a shard sheds
// load when every healthy child's queue is deep), then the tenant's token
// bucket and queue-depth quota (internal/tenant). Over-limit work is
// rejected with 429 and a Retry-After header (integer seconds) before any
// response bytes stream, so a rejected batch is cheap for both sides;
// Client honors the header by delaying its retry at least that long. A
// corpus at its tree bound rejects uploads with 413, which is
// deterministic and must not be retried.
//
// /v1/warm is the cache-warming sink of cross-shard gossip: a shard (or a
// sibling server) pushes rows it computed, keyed by schedule.CacheKey, and
// a server configured with a row store (ServerOptions.Store, cmd/scheduled
// -cache) stores them so a resubmitted or re-run chunk is answered without
// recomputation. A server without a store accepts the push and stores
// nothing ({"stored": 0}) — warming a cacheless server is a no-op, not an
// error. The row cache is content-addressed and therefore shared across
// tenants by design — equal trees produce equal rows, so there is nothing
// tenant-specific to leak — and /v1/warm is likewise tenant-unscoped.
//
// With ServerOptions.Gossip (cmd/scheduled -peers) the server is also a
// warm-push source: after each successful batch it offers the batch's
// keyed rows to its peers' /v1/warm endpoints through the Gossiper's
// bounded, drop-on-backpressure queues, so caches heat fleet-wide without
// a shard in the loop. Rows received on /v1/warm are stored but never
// re-gossiped, so a warm push cannot circulate forever between peers.
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

// JobSpec is one job on the wire: schedule.Job with the tree replaced by a
// reference — an id into BatchRequest.Trees, or (when absent there) the
// 64-hex digest of a tree the tenant uploaded to /v1/trees.
type JobSpec struct {
	Instance  string `json:"instance"`
	Tree      string `json:"tree"`
	Algorithm string `json:"algorithm"`
	Order     []int  `json:"order,omitempty"`
	Memory    int64  `json:"memory,omitempty"`
	Window    int    `json:"window,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Trees maps tree ids to .tree wire-form text.
	Trees map[string]string `json:"trees"`
	Jobs  []JobSpec         `json:"jobs"`
	// Workers bounds the server-side worker pool (≤ 0: server default).
	Workers int `json:"workers,omitempty"`
}

// BatchLine is one line of the POST /v1/batch response stream.
type BatchLine struct {
	Index int           `json:"index,omitempty"`
	Row   *schedule.Row `json:"row,omitempty"`
	Error string        `json:"error,omitempty"`
	Done  bool          `json:"done,omitempty"`
	Count int           `json:"count,omitempty"`
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

// TreeUploadRequest is the body of POST /v1/trees: .tree wire-form texts
// to add to the calling tenant's corpus.
type TreeUploadRequest struct {
	// Trees holds the instances in .tree text form, one string each.
	Trees []string `json:"trees"`
}

// TreeUploadResponse is the body of the POST /v1/trees response.
type TreeUploadResponse struct {
	// Digests names each uploaded tree (hex, request order); a batch job
	// may reference a corpus tree by this string in its "tree" field.
	Digests []string `json:"digests"`
	// Added and Deduped split the upload: trees stored now vs trees the
	// corpus already held (acknowledged, stored once).
	Added   int `json:"added"`
	Deduped int `json:"deduped"`
}

// TreeListResponse is the body of GET /v1/trees: the tenant's corpus
// digests in sorted hex order.
type TreeListResponse struct {
	// Digests lists the corpus, sorted.
	Digests []string `json:"digests"`
}

// maxBatchBytes bounds a batch request body (64 MiB — a full-scale grid
// over the dataset suite is well under 10 MiB on the wire).
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
	treesAdded      atomic.Int64
	treesDeduped    atomic.Int64
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
// against the server's retained trees for the tenant, then the tenant's
// corpus; inline trees are retained.
type batchTrees struct {
	s   *Server
	ten *tenant.Tenant
}

func (b batchTrees) resolve(d tree.Digest) (*tree.Tree, bool) {
	t, ok := b.s.retained.get(retainKey{b.ten.Name(), d})
	if !ok {
		t, ok = b.ten.LookupTree(d)
	}
	if ok {
		b.s.refsResolved.Add(1)
	} else {
		b.s.refsUnknown.Add(1)
	}
	return t, ok
}

func (b batchTrees) adopt(t *tree.Tree) *tree.Tree {
	return b.s.retained.add(retainKey{b.ten.Name(), t.Digest()}, t, t.Len())
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
	// its tenant's token bucket and queue quota, and /v1/trees uploads
	// land in its tenant's corpus. Nil selects a fresh unlimited registry,
	// so tenancy endpoints work (namespaced, never rejected) on servers
	// that configure no quotas.
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

// NewServer builds a server over backend (nil selects schedule.Local) with
// workers bounding each batch's pool unless the request asks for fewer
// (≤ 0: GOMAXPROCS). The bound is global: batches evaluate one at a time,
// so concurrent submissions cannot multiply the pool. Warm pushes are
// dropped; use NewServerWith to accept them into a store.
func NewServer(backend schedule.Backend, workers int) *Server {
	return NewServerWith(ServerOptions{Backend: backend, Workers: workers})
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
	mux.HandleFunc("/v1/trees", s.handleTrees)
	return mux
}

// tenantFor resolves the request's tenant from the X-Tenant header.
func (s *Server) tenantFor(r *http.Request) *tenant.Tenant {
	return s.tenants.Tenant(r.Header.Get(TenantHeader))
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

// handleTrees serves the tenant corpus: POST uploads .tree texts
// (deduplicated by digest), GET lists the corpus digests.
func (s *Server) handleTrees(w http.ResponseWriter, r *http.Request) {
	ten := s.tenantFor(r)
	switch r.Method {
	case http.MethodGet:
		digests := ten.Digests()
		resp := TreeListResponse{Digests: make([]string, len(digests))}
		for i, d := range digests {
			resp.Digests[i] = d.String()
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		var req TreeUploadRequest
		body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, "bad tree upload: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp := TreeUploadResponse{Digests: make([]string, 0, len(req.Trees))}
		for i, text := range req.Trees {
			t, err := tree.Read(strings.NewReader(text))
			if err != nil {
				http.Error(w, fmt.Sprintf("tree %d: %v", i, err), http.StatusBadRequest)
				return
			}
			d, added, err := ten.AddTree(t)
			if errors.Is(err, tenant.ErrCorpusFull) {
				// Deterministic: retrying cannot succeed, so 413, not 429.
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			resp.Digests = append(resp.Digests, d.String())
			if added {
				resp.Added++
				s.treesAdded.Add(1)
			} else {
				resp.Deduped++
				s.treesDeduped.Add(1)
			}
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleWarm accepts rows computed elsewhere into the server's row store.
// Entries with empty keys are rejected as malformed; a server without a
// store accepts the push and stores nothing.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req WarmRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad warm request: "+err.Error(), http.StatusBadRequest)
		return
	}
	for i, e := range req.Entries {
		if err := schedule.CheckWarmEntry(e); err != nil {
			http.Error(w, fmt.Sprintf("warm entry %d: %v", i, err), http.StatusBadRequest)
			return
		}
	}
	stored := 0
	if s.store != nil {
		for _, e := range req.Entries {
			if err := s.store.Put(e.Key, e.Row); err != nil {
				http.Error(w, "store warm entry: "+err.Error(), http.StatusInternalServerError)
				return
			}
			stored++
		}
	}
	writeJSON(w, http.StatusOK, WarmResponse{Stored: stored})
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
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	ten := s.tenantFor(r)
	var (
		jobs       []schedule.Job
		reqWorkers int
	)
	if isBinaryBatch(r.Header.Get("Content-Type")) {
		w.Header().Set(TreeRefsHeader, "1")
		data, err := io.ReadAll(body)
		if err != nil {
			http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		jobs, reqWorkers, err = decodeBatchBinary(data, batchTrees{s, ten})
		var unknown *unknownTreesError
		if errors.As(err, &unknown) {
			writeUnknownTrees(w, unknown, ten)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var req BatchRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		if jobs, err = decodeJobs(req, ten); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reqWorkers = req.Workers
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
			ten.RecordOverload(len(jobs))
			s.batchesRejected.Add(1)
			writeRetryAfter(w, after, err.Error())
			return
		}
	}
	release, err := ten.Admit(len(jobs))
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
	// as a trailing error/terminator frame, not a status code. The stream
	// form follows the Accept header, independently of the request form.
	flusher, _ := w.(http.Flusher)
	var resp batchResponder
	if acceptsBinaryRows(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", ContentTypeBinaryRows)
		w.WriteHeader(http.StatusOK)
		resp = &binaryResponder{w: w, flusher: flusher}
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		resp = &jsonResponder{enc: json.NewEncoder(w), flusher: flusher}
	}
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

// decodeJobs parses the request's trees once each and resolves job specs
// against them. A spec's tree reference resolves first against the
// request's inline map; a reference absent there that parses as a digest
// resolves against the tenant's uploaded corpus, so a tenant that has
// POSTed its trees to /v1/trees batches by digest without re-sending the
// tree text.
func decodeJobs(req BatchRequest, ten *tenant.Tenant) ([]schedule.Job, error) {
	trees := make(map[string]*tree.Tree, len(req.Trees))
	for id, text := range req.Trees {
		t, err := tree.Read(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("service: tree %q: %w", id, err)
		}
		trees[id] = t
	}
	jobs := make([]schedule.Job, len(req.Jobs))
	for i, spec := range req.Jobs {
		t, ok := trees[spec.Tree]
		if !ok {
			if d, err := tree.ParseDigest(spec.Tree); err == nil {
				if t, ok = ten.LookupTree(d); ok {
					trees[spec.Tree] = t // memoize the corpus hit for later jobs
				} else {
					return nil, fmt.Errorf("service: job %d references digest %s, not in tenant %q's corpus (upload via /v1/trees first)", i, spec.Tree, ten.Name())
				}
			} else {
				return nil, fmt.Errorf("service: job %d references unknown tree %q", i, spec.Tree)
			}
		}
		jobs[i] = schedule.Job{
			Instance:  spec.Instance,
			Tree:      t,
			Algorithm: spec.Algorithm,
			Order:     spec.Order,
			Memory:    spec.Memory,
			Window:    spec.Window,
		}
	}
	return jobs, nil
}

// writeUnknownTrees answers a binary batch whose references resolve
// nowhere: 409 with the missing digests, before any stream commits.
func writeUnknownTrees(w http.ResponseWriter, e *unknownTreesError, ten *tenant.Tenant) {
	body := unknownTreesBody{
		Error:   fmt.Sprintf("%v for tenant %q: resend them inline, or upload them to the corpus via /v1/trees", e, ten.Name()),
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
