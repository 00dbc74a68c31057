package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tree"

	// The server side evaluates against the registry: register everything.
	_ "repro/internal/minio"
	_ "repro/internal/traversal"
)

func testInstances(t testing.TB) []schedule.Instance {
	t.Helper()
	var out []schedule.Instance
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 30 + int(seed)*7, MaxF: 15, MaxN: 6, Attach: tree.AttachKind(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, schedule.Instance{Name: fmt.Sprintf("rand-%d", seed), Tree: tr})
	}
	return out
}

func testJobs(t testing.TB) []schedule.Job {
	t.Helper()
	insts := testInstances(t)
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "liu", "minmem"})
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return []int64{tr.MaxMemReq()}, nil
	}
	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), nil, "minmem", schedule.EvictionPolicyNames(), memories)
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

func startServer(t *testing.T, backend schedule.Backend) *service.Client {
	t.Helper()
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{Backend: backend}).Handler())
	t.Cleanup(srv.Close)
	return service.NewClient(srv.URL+"/", srv.Client()) // trailing slash must be tolerated
}

// A remote grid must return the rows of a local run bit-identically (the
// Seconds column aside — it is measured on the server).
func TestRemoteMatchesLocal(t *testing.T) {
	jobs := testJobs(t)
	local, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, nil)
	if caps := client.Capabilities(); !caps.Remote {
		t.Fatalf("client capabilities %+v not remote", caps)
	}
	streamed := 0
	indexed := map[int]bool{}
	remote, err := client.Run(context.Background(), jobs, schedule.BatchOptions{
		Workers: 4,
		OnRow:   func(schedule.Row) { streamed++ },
		OnRowIndexed: func(i int, r schedule.Row) {
			if indexed[i] {
				t.Fatalf("row %d streamed twice", i)
			}
			indexed[i] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(jobs) || len(indexed) != len(jobs) {
		t.Fatalf("streamed %d rows (%d indexed), want %d", streamed, len(indexed), len(jobs))
	}
	if len(remote) != len(local) {
		t.Fatalf("remote returned %d rows, want %d", len(remote), len(local))
	}
	for i := range local {
		a, b := local[i], remote[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs remote vs local: %+v vs %+v", i, remote[i], local[i])
		}
	}
}

// GridSource hands each instance's orderBy outcome to its orderBy job, and
// Local reports it without solving again. Those rows must equal, Seconds
// zeroed, a fresh Local run of the same jobs without the outcome and a
// two-server shard, whose servers recompute it.
func TestGridSourceReusedOutcomeMatchesRecompute(t *testing.T) {
	insts := testInstances(t)
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return []int64{tr.MaxMemReq(), (tr.MaxMemReq() + out.Memory) / 2}, nil
	}
	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), []string{"postorder", "liu", "minmem"}, "minmem", schedule.EvictionPolicyNames(), memories)
	if err != nil {
		t.Fatal(err)
	}
	var (
		jobs  []schedule.Job
		fresh []schedule.Job
	)
	for {
		j, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		jobs = append(jobs, j)
		fresh = append(fresh, schedule.Job{Instance: j.Instance, Tree: j.Tree, Algorithm: j.Algorithm, Order: j.Order, Memory: j.Memory, Window: j.Window})
	}
	ctx := context.Background()
	reused, err := schedule.Local{}.Run(ctx, jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := schedule.Local{}.Run(ctx, fresh, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := schedule.NewShardWith(schedule.ShardOptions{}, startServer(t, nil), startServer(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.Run(ctx, jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]schedule.Row{"fresh local": local, "two-server shard": sharded} {
		if len(rows) != len(reused) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(reused))
		}
		for i := range reused {
			a, b := reused[i], rows[i]
			a.Seconds, b.Seconds = 0, 0
			if a != b {
				t.Fatalf("row %d: reused outcome %+v, %s %+v", i, reused[i], name, rows[i])
			}
		}
	}
}

// A client reads each response to EOF, so 20 sequential batches to one
// server reuse a single TCP connection.
func TestClientReusesConnection(t *testing.T) {
	jobs := testJobs(t)[:8]
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(service.NewServerWith(service.ServerOptions{}).Handler())
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	client := service.NewClient(srv.URL, &http.Client{Transport: &http.Transport{}})
	for i := 0; i < 20; i++ {
		if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 sequential batches opened %d connections, want 1", n)
	}
}

// The service composes with the cache: a server over a Cached backend
// answers a repeated batch from the store.
func TestRemoteOverCachedBackend(t *testing.T) {
	jobs := testJobs(t)
	cached := schedule.NewCached(schedule.Local{}, nil)
	client := startServer(t, cached)
	first, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("warm remote row %d not bit-identical: %+v vs %+v", i, first[i], second[i])
		}
	}
	if hits, misses := cached.Counters(); hits != int64(len(jobs)) || misses != int64(len(jobs)) {
		t.Fatalf("server cache counters hits=%d misses=%d, want %d/%d", hits, misses, len(jobs), len(jobs))
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []service.AlgorithmInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(schedule.Names()) {
		t.Fatalf("server lists %d algorithms, registry has %d", len(infos), len(schedule.Names()))
	}
	byName := map[string]service.AlgorithmInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if got := byName["minmem"].Kind; got != "minmemory" {
		t.Fatalf("minmem kind %q", got)
	}
	if got := byName["first-fit"].Display; got != "First Fit" {
		t.Fatalf("first-fit display %q", got)
	}
}

func TestRemoteErrors(t *testing.T) {
	insts := testInstances(t)[:1]
	client := startServer(t, nil)

	// A failing job surfaces as a trailing error line → client error.
	bad := []schedule.Job{{Instance: insts[0].Name, Tree: insts[0].Tree, Algorithm: "no-such-solver"}}
	if _, err := client.Run(context.Background(), bad, schedule.BatchOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no-such-solver") {
		t.Fatalf("unknown algorithm: got %v", err)
	}

	// A nil tree is rejected client-side before anything hits the wire.
	if _, err := client.Run(context.Background(), []schedule.Job{{Algorithm: "minmem"}}, schedule.BatchOptions{}); err == nil {
		t.Fatal("nil tree accepted")
	}

	// Malformed request bodies and out-of-range tree indices are 400s.
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/batch", service.ContentTypeBinaryBatch, strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Workers 0, no trees, no orders, then one job on tree 0.
	noTree := []byte{schedule.WireMagic, 'B', 1, 0, 0, 0, 1, 0, 0, 1, 'x', 6}
	noTree = append(append(noTree, "minmem"...), 0, 0)
	resp, err = http.Post(srv.URL+"/v1/batch", service.ContentTypeBinaryBatch, bytes.NewReader(noTree))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "references tree 0 of 0") {
		t.Fatalf("unknown tree index: status %d %q, want 400", resp.StatusCode, body)
	}

	// A stream that ends without a terminator frame is reported as
	// truncated.
	trunc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", service.ContentTypeBinaryRows)
		w.Write([]byte{schedule.WireMagic, 'b', 1}) // the stream header, no frames
	}))
	defer trunc.Close()
	tclient := service.NewClient(trunc.URL, nil)
	if _, err := tclient.Run(context.Background(), bad[:0], schedule.BatchOptions{}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream: got %v", err)
	}
}

// The batch endpoint speaks only the binary form: a JSON body, or a body
// with no Content-Type, gets 415 naming the binary media type, before the
// body is read.
func TestBatchRejectsNonBinaryContentType(t *testing.T) {
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv.Close()
	for _, ct := range []string{"application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch",
			strings.NewReader(`{"trees":{"t":"p 1\n-1 1 1\n"},"jobs":[{"instance":"x","tree":"t","algorithm":"minmem"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || !strings.Contains(string(body), service.ContentTypeBinaryBatch) {
			t.Fatalf("Content-Type %q: status %d %q, want 415 naming %s", ct, resp.StatusCode, body, service.ContentTypeBinaryBatch)
		}
	}
}

// flakyHandler fails the first failN /v1/batch POSTs with the given status
// (or cuts the stream after a prefix when truncate is set), then serves
// normally. It counts batch calls.
type flakyHandler struct {
	inner    http.Handler
	failN    atomic.Int64
	status   int
	truncate bool
	batches  atomic.Int64
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/batch" {
		h.batches.Add(1)
		if h.failN.Add(-1) >= 0 {
			if h.truncate {
				// A committed 200 stream cut off after one genuine row and
				// before the done frame: the client must treat it as
				// truncated, retry, and not re-announce the row it already
				// delivered.
				body, _ := io.ReadAll(r.Body)
				replay := r.Clone(r.Context())
				replay.Body = io.NopCloser(bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.inner.ServeHTTP(rec, replay)
				out := rec.Body.Bytes()
				frame, n := binary.Uvarint(out[3:]) // past the stream header
				w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
				w.WriteHeader(http.StatusOK)
				w.Write(out[:3+n+int(frame)])
				return
			}
			http.Error(w, "server warming up", h.status)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

// A client with Retries resubmits past transient failures — 5xx statuses
// and streams cut off before the done line — and announces every row
// exactly once across attempts; without Retries the first failure is fatal.
func TestClientRetries(t *testing.T) {
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]*flakyHandler{
		"5xx":      {status: http.StatusServiceUnavailable},
		"truncate": {truncate: true},
	} {
		wrap.inner = service.NewServerWith(service.ServerOptions{}).Handler()
		wrap.failN.Store(2)
		srv := httptest.NewServer(wrap)
		client := service.NewClient(srv.URL, srv.Client())
		client.Retries = 3
		client.RetryBackoff = time.Millisecond
		indexed := map[int]int{}
		rows, err := client.Run(context.Background(), jobs, schedule.BatchOptions{
			OnRowIndexed: func(i int, r schedule.Row) { indexed[i]++ },
		})
		if err != nil {
			t.Fatalf("%s: retried run failed: %v", name, err)
		}
		for i := range want {
			a, b := want[i], rows[i]
			a.Seconds, b.Seconds = 0, 0
			if a != b {
				t.Fatalf("%s: row %d differs after retries: %+v vs %+v", name, i, rows[i], want[i])
			}
		}
		for i, n := range indexed {
			if n != 1 {
				t.Fatalf("%s: row %d announced %d times across attempts", name, i, n)
			}
		}
		if got := wrap.batches.Load(); got != 3 {
			t.Fatalf("%s: server saw %d batch calls, want 3", name, got)
		}
		srv.Close()
	}

	// Without retries the transient failure surfaces.
	wrap := &flakyHandler{inner: service.NewServerWith(service.ServerOptions{}).Handler(), status: http.StatusServiceUnavailable}
	wrap.failN.Store(1)
	srv := httptest.NewServer(wrap)
	defer srv.Close()
	if _, err := service.NewClient(srv.URL, srv.Client()).Run(context.Background(), jobs, schedule.BatchOptions{}); err == nil {
		t.Fatal("transient failure swallowed without Retries")
	}

	// Deterministic failures are not retried: a bad request burns no
	// attempts against the server.
	bad := &flakyHandler{inner: service.NewServerWith(service.ServerOptions{}).Handler()}
	bsrv := httptest.NewServer(bad)
	defer bsrv.Close()
	bclient := service.NewClient(bsrv.URL, bsrv.Client())
	bclient.Retries = 5
	bclient.RetryBackoff = time.Millisecond
	badJobs := []schedule.Job{{Instance: "x", Tree: testInstances(t)[0].Tree, Algorithm: "no-such-solver"}}
	if _, err := bclient.Run(context.Background(), badJobs, schedule.BatchOptions{}); err == nil {
		t.Fatal("job error swallowed")
	}
	if got := bad.batches.Load(); got != 1 {
		t.Fatalf("deterministic failure was retried: %d batch calls", got)
	}
}

// The differential pin for the shard's child lifecycle: an adaptively
// scheduled, readmitting Shard over two scheduled servers — one steady,
// one flapping — is bit-identical (modulo Seconds) to Local. The flapping
// server's batch failures quarantine it; its algorithm-list endpoint keeps
// answering, so the health probe readmits it and it serves again, and both
// lifecycle counters end up nonzero.
//
// Nothing here waits on the clock. The stream repeats the grid until the
// shard has readmitted the flapping server and that server has taken a
// batch past its two failures; only the number of passes depends on
// timing. Both events must come: every dispatch after the quarantine's due
// time probes the benched server, and a readmitted server that has never
// completed a chunk is unmeasured, so the adaptive policy explores it on
// the next dispatch.
func TestShardOverTwoServersMatchesLocal(t *testing.T) {
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Server 2 flaps: it fails its first two batch calls (chunked dispatch
	// spreads calls across both servers), while its list endpoint — the
	// health probe — keeps working.
	steady := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer steady.Close()
	wrap := &flakyHandler{inner: service.NewServerWith(service.ServerOptions{}).Handler(), status: http.StatusBadGateway}
	wrap.failN.Store(2)
	flaky := httptest.NewServer(wrap)
	defer flaky.Close()

	c1 := service.NewClient(steady.URL, steady.Client())
	c2 := service.NewClient(flaky.URL, flaky.Client())
	shard, err := schedule.NewShardWith(schedule.ShardOptions{
		Policy:         schedule.PolicyAdaptive,
		QuarantineBase: time.Millisecond,
	}, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if caps := shard.Capabilities(); !caps.Remote {
		t.Fatalf("shard of remotes not remote: %+v", caps)
	}

	// maxPasses only turns a lifecycle regression into a failure instead of
	// an endless stream.
	const maxPasses = 1000
	n := 0
	src := schedule.SourceFunc(func() (schedule.Job, bool, error) {
		recovered := shard.Counters().Readmissions >= 1 && wrap.batches.Load() > 2
		if recovered || n == maxPasses*len(jobs) {
			return schedule.Job{}, false, nil
		}
		n++
		return jobs[(n-1)%len(jobs)], true, nil
	})
	var sank schedule.Collector
	if err := shard.Stream(context.Background(), src, &sank, schedule.StreamOptions{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	rows := sank.Rows()
	if len(rows) != n {
		t.Fatalf("shard streamed %d rows for %d jobs", len(rows), n)
	}
	for i, row := range rows {
		a, b := want[i%len(want)], row
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs sharded vs local: %+v vs %+v", i, row, want[i%len(want)])
		}
	}
	c := shard.Counters()
	if c.Resubmissions < 2 {
		t.Fatalf("failed chunks were not resubmitted: counters %+v", c)
	}
	if c.Quarantines < 1 {
		t.Fatalf("flapping server never quarantined: counters %+v", c)
	}
	if c.Readmissions < 1 {
		t.Fatalf("flapping server never readmitted: counters %+v", c)
	}
	if wrap.batches.Load() <= 2 {
		t.Fatal("flaky server never served after recovering")
	}
}

// Health is the readmission probe: nil against a serving server, an error
// against one whose registry endpoint fails.
func TestClientHealth(t *testing.T) {
	client := startServer(t, nil)
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("healthy server probed unhealthy: %v", err)
	}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	if err := service.NewClient(down.URL, down.Client()).Health(context.Background()); err == nil {
		t.Fatal("down server probed healthy")
	}
}

// /v1/warm stores pushed rows in the server's store, so a later batch over
// the same jobs is answered without recomputation; a cacheless server
// accepts the push as a no-op.
func TestWarmEndpoint(t *testing.T) {
	jobs := testJobs(t)
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]schedule.WarmEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = schedule.WarmEntry{Key: schedule.CacheKey(j), Row: rows[i]}
	}

	store := schedule.NewMemStore()
	cached := schedule.NewCached(schedule.Local{}, store)
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{Backend: cached, Store: store}).Handler())
	defer srv.Close()
	client := service.NewClient(srv.URL, srv.Client())
	stored, err := client.WarmRows(context.Background(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if stored != len(entries) || store.Len() != len(entries) {
		t.Fatalf("warm stored %d entries (store holds %d), want %d", stored, store.Len(), len(entries))
	}
	// The warmed server answers the whole batch from its store.
	if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cached.Counters(); misses != 0 || hits != int64(len(jobs)) {
		t.Fatalf("warmed server recomputed: %d hits, %d misses", hits, misses)
	}

	// A cacheless server accepts and stores nothing.
	plain := startServer(t, nil)
	if stored, err := plain.WarmRows(context.Background(), entries[:3]); err != nil || stored != 0 {
		t.Fatalf("cacheless warm: stored %d, err %v", stored, err)
	}

	// Entries whose key is malformed or disagrees with the row are
	// rejected before anything is stored.
	before := store.Len()
	minio := len(jobs) - 1 // testJobs ends with a policy job
	wrongAlg := entries[minio]
	wrongAlg.Row.Algorithm = "lsnf"
	if wrongAlg.Row.Algorithm == jobs[minio].Algorithm {
		wrongAlg.Row.Algorithm = "first-fit"
	}
	wrongBudget := entries[minio]
	wrongBudget.Row.Budget++
	wrongKind := entries[0]
	wrongKind.Row.Kind = "minio"
	bad := map[string]schedule.WarmEntry{
		"empty key":         {},
		"mismatched algo":   wrongAlg,
		"mismatched budget": wrongBudget,
		"mismatched kind":   wrongKind,
		"unknown algorithm": {Key: strings.Replace(entries[0].Key, "/"+jobs[0].Algorithm+"/", "/no-such-solver/", 1), Row: rows[0]},
		"malformed key":     {Key: "not-a-digest/" + jobs[0].Algorithm + "/m0/w0/o-", Row: rows[0]},
		"extra key segment": {Key: entries[0].Key + "/x", Row: rows[0]},
		"empty order field": {Key: strings.TrimSuffix(entries[0].Key, "o-"), Row: rows[0]},
	}
	for name, e := range bad {
		if _, err := client.WarmRows(context.Background(), []schedule.WarmEntry{entries[1], e}); err == nil {
			t.Errorf("%s: warm entry accepted", name)
		}
	}
	if store.Len() != before {
		t.Fatalf("rejected warm requests stored rows: %d → %d", before, store.Len())
	}

	// A missing, null or empty entries list is an empty push; other fields
	// are ignored and the field name matches case-insensitively.
	list, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	for body, want := range map[string]int{
		`{}`:               0,
		`{"entries":null}`: 0,
		`{"entries":[]}`:   0,
		`{"other":[1,{"entries":2}],"Entries":` + string(list) + `}`: len(entries),
	} {
		fresh := schedule.NewMemStore()
		rec := httptest.NewRecorder()
		service.NewServerWith(service.ServerOptions{Store: fresh}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/warm", strings.NewReader(body)))
		var resp service.WarmResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%.40s: answered %d: %s", body, rec.Code, rec.Body)
		}
		if resp.Stored != want || fresh.Len() != want {
			t.Fatalf("%.40s: stored %d (store holds %d), want %d", body, resp.Stored, fresh.Len(), want)
		}
	}
}

// Client.Stream ships the grid as bounded chunk submissions: the server
// sees ⌈jobs/ChunkSize⌉ batch calls, no call carries the whole grid, and
// the merged rows equal a Local run.
func TestClientStreamChunked(t *testing.T) {
	jobs := testJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counter := &flakyHandler{inner: service.NewServerWith(service.ServerOptions{}).Handler()}
	srv := httptest.NewServer(counter)
	defer srv.Close()
	client := service.NewClient(srv.URL, srv.Client())

	const chunk = 4
	var sank schedule.Collector
	if err := client.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: chunk}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := want[i], sank.Rows()[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs streamed vs local: %+v vs %+v", i, sank.Rows()[i], want[i])
		}
	}
	wantCalls := int64((len(jobs) + chunk - 1) / chunk)
	if got := counter.batches.Load(); got != wantCalls {
		t.Fatalf("server saw %d batch calls for %d jobs, want %d chunks of %d", got, len(jobs), wantCalls, chunk)
	}
}

// concurrencyBackend records the peak number of concurrent Run calls.
type concurrencyBackend struct {
	inner  schedule.Backend
	active atomic.Int64
	peak   atomic.Int64
}

func (b *concurrencyBackend) Capabilities() schedule.Capabilities { return b.inner.Capabilities() }

func (b *concurrencyBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	n := b.active.Add(1)
	defer b.active.Add(-1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(5 * time.Millisecond) // widen the overlap window
	return b.inner.Run(ctx, jobs, opt)
}

func (b *concurrencyBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

// The server's workers bound is global: concurrent batch submissions —
// several clients, or one client streaming chunks in flight — evaluate one
// at a time instead of each spinning up its own worker pool.
func TestServerSerializesBatchEvaluations(t *testing.T) {
	probe := &concurrencyBackend{inner: schedule.Local{}}
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{Backend: probe, Workers: 1}).Handler())
	defer srv.Close()
	client := service.NewClient(srv.URL, srv.Client())
	jobs := testJobs(t)

	var sank schedule.Collector
	if err := client.Stream(context.Background(), schedule.SliceSource(jobs), &sank,
		schedule.StreamOptions{ChunkSize: 3, InFlight: 4}); err != nil {
		t.Fatal(err)
	}
	if len(sank.Rows()) != len(jobs) {
		t.Fatalf("streamed %d rows, want %d", len(sank.Rows()), len(jobs))
	}
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
	if p := probe.peak.Load(); p != 1 {
		t.Fatalf("server evaluated %d batches concurrently, want 1", p)
	}
}
