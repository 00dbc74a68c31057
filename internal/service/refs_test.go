package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// refInstanceJobs is a small grid over four trees: three MinMemory
// solvers per tree, one job list per tree.
func refInstanceJobs(t *testing.T) [][]schedule.Job {
	t.Helper()
	var out [][]schedule.Job
	for i := 0; i < 4; i++ {
		tr, err := tree.Random(rand.New(rand.NewSource(int64(21+i))), tree.RandomOptions{Nodes: 20 + 5*i, MaxF: 10, MaxN: 6})
		if err != nil {
			t.Fatal(err)
		}
		var per []schedule.Job
		for _, alg := range []string{"postorder", "liu", "minmem"} {
			per = append(per, schedule.Job{Instance: string(rune('a' + i)), Tree: tr, Algorithm: alg})
		}
		out = append(out, per)
	}
	return out
}

// flatten concatenates per-tree job lists.
func flatten(per ...[]schedule.Job) []schedule.Job {
	var out []schedule.Job
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// entryCounter is a treeResolver that counts a body's tree-table entries.
type entryCounter struct{ refs, inline int }

func (c *entryCounter) resolve(tree.Digest) (*tree.Tree, bool) { c.refs++; return nil, false }
func (c *entryCounter) adopt(t *tree.Tree) *tree.Tree          { c.inline++; return t }

// exchange is one binary batch request a refServer saw: its tree-table
// entries and the status it was answered with.
type exchange struct {
	inline, refs int
	status       int
}

// refServer is an in-process server whose Server can be replaced (a
// restart) and whose binary batch requests are recorded. With stripRefs
// it drops TreeRefsHeader from every response, as a server predating
// references would.
type refServer struct {
	url       string
	server    atomic.Pointer[Server]
	stripRefs bool

	mu   sync.Mutex
	seen []exchange
}

func startRefServer(t *testing.T, stripRefs bool) *refServer {
	t.Helper()
	rs := &refServer{stripRefs: stripRefs}
	rs.server.Store(NewServerWith(ServerOptions{Workers: 1}))
	srv := httptest.NewServer(http.HandlerFunc(rs.serve))
	t.Cleanup(srv.Close)
	rs.url = srv.URL
	return rs
}

func (rs *refServer) serve(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, strip: rs.stripRefs}
	if r.URL.Path == "/v1/batch" && isBinaryBatch(r.Header.Get("Content-Type")) {
		body, _ := io.ReadAll(r.Body)
		var c entryCounter
		decodeBatchBinary(body, &c)
		r.Body = io.NopCloser(bytes.NewReader(body))
		// Recorded when the status is written, before the client can read
		// any of the response, so a finished Run has been recorded.
		rec.onStatus = func(code int) {
			rs.mu.Lock()
			rs.seen = append(rs.seen, exchange{inline: c.inline, refs: c.refs, status: code})
			rs.mu.Unlock()
		}
	}
	rs.server.Load().Handler().ServeHTTP(rec, r)
}

// restart replaces the server with a fresh one that retains nothing.
func (rs *refServer) restart() { rs.server.Store(NewServerWith(ServerOptions{Workers: 1})) }

// take returns the exchanges recorded since the last take.
func (rs *refServer) take() []exchange {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := rs.seen
	rs.seen = nil
	return out
}

// statusRecorder reports a response's status to onStatus, when set, and
// optionally strips TreeRefsHeader, before the status is sent.
type statusRecorder struct {
	http.ResponseWriter
	strip    bool
	onStatus func(code int)
	status   int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
		if s.strip {
			s.Header().Del(TreeRefsHeader)
		}
		if s.onStatus != nil {
			s.onStatus(code)
		}
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.WriteHeader(http.StatusOK)
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// runMatchesLocal runs jobs through the client and compares the rows with
// a local run's, Seconds aside.
func runMatchesLocal(t *testing.T, c *Client, jobs []schedule.Job) {
	t.Helper()
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := got[i], want[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs from local: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// expectExchanges fails unless the server saw exactly the given exchanges.
func expectExchanges(t *testing.T, label string, got []exchange, want ...exchange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: server saw %d binary batches %+v, want %+v", label, len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: batch %d was %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// A client's first batch ships its trees inline; once that batch is done,
// later batches over the same trees carry references only.
func TestTreeRefsWarmClientSendsReferencesOnly(t *testing.T) {
	rs := startRefServer(t, false)
	c := NewClient(rs.url, nil)
	jobs := flatten(refInstanceJobs(t)...)
	runMatchesLocal(t, c, jobs)
	runMatchesLocal(t, c, jobs)
	runMatchesLocal(t, c, jobs)
	expectExchanges(t, "warm client", rs.take(),
		exchange{inline: 4, status: http.StatusOK},
		exchange{refs: 4, status: http.StatusOK},
		exchange{refs: 4, status: http.StatusOK})
	if trees, _ := rs.server.Load().retained.size(); trees != 4 {
		t.Fatalf("server retains %d trees, want 4", trees)
	}
}

// A restarted server holds none of the trees: the client's references get
// a 409, it resends the batch inline once (outside Retries, which is 0),
// and the rows still match a local run.
func TestTreeRefsResendAfterServerRestart(t *testing.T) {
	rs := startRefServer(t, false)
	c := NewClient(rs.url, nil)
	jobs := flatten(refInstanceJobs(t)...)
	runMatchesLocal(t, c, jobs)
	rs.restart()
	runMatchesLocal(t, c, jobs)
	runMatchesLocal(t, c, jobs)
	expectExchanges(t, "restart", rs.take(),
		exchange{inline: 4, status: http.StatusOK},
		exchange{refs: 4, status: http.StatusConflict},
		exchange{inline: 4, status: http.StatusOK},
		exchange{refs: 4, status: http.StatusOK})
}

// postAllRefs posts jobs as the named tenant with every tree sent as a
// reference, a body no Client sends before it has shipped those trees, and
// returns the response status.
func postAllRefs(t *testing.T, url, tenantName string, jobs []schedule.Job) int {
	t.Helper()
	body, _, err := encodeBatchBinary(jobs, 0, func(*tree.Tree) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinaryBatch)
	req.Header.Set(TenantHeader, tenantName)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// metricAt scrapes the server's /metrics and returns the value of the
// sample whose name{labels} is exactly sample.
func metricAt(t *testing.T, url, sample string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", sample, raw)
	return 0
}

// Retained trees are per tenant: a digest tenant a shipped does not
// resolve for tenant b, whose all-references batch gets the 409.
func TestTreeRefsTenantIsolation(t *testing.T) {
	rs := startRefServer(t, false)
	a := NewClient(rs.url, nil)
	a.Tenant = "a"
	jobs := flatten(refInstanceJobs(t)...)
	runMatchesLocal(t, a, jobs)
	if code := postAllRefs(t, rs.url, "b", jobs); code != http.StatusConflict {
		t.Fatalf("tenant b referencing tenant a's trees: status %d, want 409", code)
	}
	if v := metricAt(t, rs.url, `scheduled_tree_refs_total{result="unknown"}`); v != 4 {
		t.Fatalf("%g unknown references, want 4", v)
	}
	runMatchesLocal(t, a, jobs) // still resolves for its owner
	expectExchanges(t, "tenants", rs.take(),
		exchange{inline: 4, status: http.StatusOK},
		exchange{refs: 4, status: http.StatusConflict},
		exchange{refs: 4, status: http.StatusOK})
}

// /metrics counts retained trees and tree references: a client ships four
// trees and references them twice, another tenant references them in vain,
// and the owner still resolves them.
func TestMetricsTreeRefs(t *testing.T) {
	srv := httptest.NewServer(NewServerWith(ServerOptions{}).Handler())
	defer srv.Close()
	owner := NewClient(srv.URL, nil)
	per := refInstanceJobs(t)
	jobs := flatten(per...)
	for i := 0; i < 3; i++ {
		runMatchesLocal(t, owner, jobs)
	}
	if code := postAllRefs(t, srv.URL, "stranger", jobs); code != http.StatusConflict {
		t.Fatalf("another tenant's references: status %d, want 409", code)
	}
	nodes := 0
	for _, p := range per {
		nodes += p[0].Tree.Len()
	}
	for sample, want := range map[string]float64{
		`scheduled_retained_trees`:                     4,
		`scheduled_retained_tree_nodes`:                float64(nodes),
		`scheduled_tree_refs_total{result="resolved"}`: 8,
		`scheduled_tree_refs_total{result="unknown"}`:  4,
	} {
		if got := metricAt(t, srv.URL, sample); got != want {
			t.Fatalf("%s = %g, want %g", sample, got, want)
		}
	}
	runMatchesLocal(t, owner, jobs)
	if got := metricAt(t, srv.URL, `scheduled_tree_refs_total{result="resolved"}`); got != 12 {
		t.Fatalf("the owner's references after the stranger's 409: %g resolved, want 12", got)
	}
}

// A tree the server's node budget evicted costs its owner one resend,
// never a failed batch.
func TestTreeRefsEvictionCostsOneResend(t *testing.T) {
	rs := startRefServer(t, false)
	per := refInstanceJobs(t)
	first, second := per[0][0].Tree, per[1][0].Tree
	// Room for either tree, not both.
	budget := first.Len() + second.Len() - 1
	srv := NewServerWith(ServerOptions{Workers: 1})
	srv.retained.budget = budget
	rs.server.Store(srv)
	c := NewClient(rs.url, nil)
	runMatchesLocal(t, c, per[0])
	runMatchesLocal(t, c, per[1]) // evicts the first tree
	runMatchesLocal(t, c, per[0])
	expectExchanges(t, "eviction", rs.take(),
		exchange{inline: 1, status: http.StatusOK},
		exchange{inline: 1, status: http.StatusOK},
		exchange{refs: 1, status: http.StatusConflict},
		exchange{inline: 1, status: http.StatusOK})
	if _, nodes := srv.retained.size(); nodes > budget {
		t.Fatalf("server retains %d nodes past its %d-node budget", nodes, budget)
	}
}

// A body with every tree inline, the only form a client predating
// references sends, is byte-identical to that older client's and still
// decodes and evaluates.
func TestTreeRefsInlineBodyFromOldClient(t *testing.T) {
	data, _, err := encodeBatchBinary(binaryFixtureJobs(t), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// sha256 and length of this batch's body as encoded before references.
	const golden = "93deeb25f24385d2636f23317b65b87b101b74e430a3009d74914d735941394b"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != golden || len(data) != 301 {
		t.Fatalf("inline body changed: sha256 %x, %d bytes", sum, len(data))
	}
	rs := startRefServer(t, false)
	jobs := flatten(refInstanceJobs(t)...)
	body, _, err := encodeBatchBinary(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rs.url+"/v1/batch", ContentTypeBinaryBatch, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline body answered %s", resp.Status)
	}
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]schedule.Row, len(jobs))
	got := make([]bool, len(jobs))
	if err := readBinaryResponse(resp.Body, jobs, schedule.BatchOptions{}, rows, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, b := rows[i], want[i]
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs from local: %+v vs %+v", i, rows[i], want[i])
		}
	}
	expectExchanges(t, "old client", rs.take(), exchange{inline: 4, status: http.StatusOK})
}

// A server that never sends the capability header never receives a
// reference, however many batches the client sends it.
func TestTreeRefsOldServerNeverReceivesReferences(t *testing.T) {
	rs := startRefServer(t, true)
	c := NewClient(rs.url, nil)
	jobs := flatten(refInstanceJobs(t)...)
	for i := 0; i < 3; i++ {
		runMatchesLocal(t, c, jobs)
	}
	expectExchanges(t, "old server", rs.take(),
		exchange{inline: 4, status: http.StatusOK},
		exchange{inline: 4, status: http.StatusOK},
		exchange{inline: 4, status: http.StatusOK})
}
