package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/schedule"
	"repro/internal/service"
)

func TestRunAllSmall(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-exp", "all", "-scale", "small", "-seeds", "1", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table I", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
		"Table II", "Figure 9", "Theorem 1", "Theorem 2", "consistent",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	for _, f := range []string{"fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("CSV %s missing: %v", f, err)
		}
		if !strings.HasPrefix(string(data), "tau,") {
			t.Fatalf("CSV %s malformed", f)
		}
	}
}

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "theorem1", "theorem2"} {
		var sb strings.Builder
		if err := run([]string{"-exp", exp, "-scale", "small"}, &sb); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
	// A single experiment must not run the others.
	var sb strings.Builder
	if err := run([]string{"-exp", "theorem1", "-scale", "small"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Table I") {
		t.Fatal("theorem1 run produced Table I")
	}
}

// exportFiles runs -exp exp (at small scale for grid, on the smoke corpus
// for matrices) with -notime exporting into dir, and returns the CSV and
// JSON Lines exports and the printed report.
func exportFiles(t *testing.T, dir, exp string, args ...string) (csv, jsonl, out string) {
	t.Helper()
	var sb strings.Builder
	args = append([]string{"-exp", exp, "-scale", "small", "-corpus", "smoke", "-notime", "-csv", dir}, args...)
	if err := run(args, &sb); err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	c, err := os.ReadFile(filepath.Join(dir, exp+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := os.ReadFile(filepath.Join(dir, exp+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(c), string(j), sb.String()
}

// The same grid exported through every backend — local, cached cold, cached
// warm (across a process-like store reopen) and HTTP — must be byte-identical
// once -notime zeroes the seconds column.
func TestGridBackendsByteIdentical(t *testing.T) {
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "rows.paged")

	gridFiles := func(name string, backendArgs ...string) (csv, jsonl string, out string) {
		t.Helper()
		return exportFiles(t, filepath.Join(dir, name), "grid", backendArgs...)
	}

	localCSV, localJSONL, _ := gridFiles("local", "-backend", "local")
	coldCSV, coldJSONL, coldOut := gridFiles("cold", "-backend", "cached", "-cache", store)
	warmCSV, warmJSONL, warmOut := gridFiles("warm", "-backend", "cached", "-cache", store)
	httpCSV, httpJSONL, _ := gridFiles("http", "-backend", srv.URL)

	for name, got := range map[string][2]string{
		"cached cold": {coldCSV, coldJSONL},
		"cached warm": {warmCSV, warmJSONL},
		"http":        {httpCSV, httpJSONL},
	} {
		if got[0] != localCSV {
			t.Fatalf("%s grid.csv differs from local", name)
		}
		if got[1] != localJSONL {
			t.Fatalf("%s grid.jsonl differs from local", name)
		}
	}
	if !strings.Contains(coldOut, "cache: 0 hits") {
		t.Fatalf("cold run not reported as all misses:\n%s", coldOut)
	}
	if !strings.Contains(warmOut, "0 misses") || !strings.Contains(warmOut, "hits") {
		t.Fatalf("warm run not served fully from the store:\n%s", warmOut)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "nope"}, &sb); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Gossip between servers warms sibling caches, and dispatch is always
	// adaptive with a fixed hedge multiple.
	for _, flag := range []string{"-warm", "-shard-policy=roundrobin", "-hedge-multiple=2"} {
		if err := run([]string{"-exp", "grid", "-scale", "small", flag}, &sb); err == nil {
			t.Fatalf("deleted flag %s accepted", flag)
		}
	}
	if err := run([]string{"-exp", "grid", "-scale", "small", "-backend", "bogus"}, &sb); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// A comma-separated -backend URL list shards the grid across the servers;
// the exports must stay byte-identical to local, a mid-grid server failure
// included (the shard resubmits those chunks to the other server).
func TestGridShardedBackendByteIdentical(t *testing.T) {
	srv1 := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv1.Close()
	flaky := &failFirstHandler{inner: service.NewServerWith(service.ServerOptions{}).Handler()}
	flaky.failN.Store(1)
	srv2 := httptest.NewServer(flaky)
	defer srv2.Close()
	dir := t.TempDir()

	gridFiles := func(name string, backendArgs ...string) (csv, jsonl string) {
		t.Helper()
		csv, jsonl, _ = exportFiles(t, filepath.Join(dir, name), "grid", backendArgs...)
		return csv, jsonl
	}

	localCSV, localJSONL := gridFiles("local", "-backend", "local")
	shardCSV, shardJSONL := gridFiles("shard", "-backend", srv1.URL+","+srv2.URL, "-retries", "0")
	if shardCSV != localCSV {
		t.Fatal("sharded grid.csv differs from local")
	}
	if shardJSONL != localJSONL {
		t.Fatal("sharded grid.jsonl differs from local")
	}
	if flaky.batches.Load() == 0 {
		t.Fatal("second server never dispatched to")
	}

	// A child serving from a paged row store, cold and then reopened as a
	// restarted server would: the second export is answered from the
	// on-disk B-tree and is byte-identical again. The cold run uses the
	// paged server alone, so its store holds every row and whichever
	// chunks the reopened child is dispatched, every one is a hit.
	storePath := filepath.Join(dir, "rows.paged")
	for _, name := range []string{"paged-cold", "paged-reopened"} {
		store, err := schedule.OpenPagedStore(storePath)
		if err != nil {
			t.Fatal(err)
		}
		cached := schedule.NewCached(schedule.Local{}, store)
		paged := httptest.NewServer(service.NewServerWith(service.ServerOptions{
			Backend: cached, Cache: cached, Store: store, Rows: store,
		}).Handler())
		backend := srv1.URL + "," + paged.URL
		if name == "paged-cold" {
			backend = paged.URL
		}
		csv, jsonl := gridFiles(name, "-backend", backend)
		paged.Close()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if csv != localCSV || jsonl != localJSONL {
			t.Fatalf("%s shard exports differ from local", name)
		}
		hits, misses := cached.Counters()
		if name == "paged-reopened" && (hits == 0 || misses != 0) {
			t.Fatalf("reopened paged child: %d hits, %d misses, want every row from the store", hits, misses)
		}
	}

	// Malformed lists are rejected.
	var sb strings.Builder
	if err := run([]string{"-exp", "grid", "-scale", "small", "-backend", srv1.URL + ",bogus"}, &sb); err == nil {
		t.Fatal("non-URL shard member accepted")
	}
}

// The smoke corpus streamed through the ordering × amalgamation pipeline
// exports the same bytes on a two-server shard as locally, and the report
// ranks the orderings of all four manifest families.
func TestMatricesShardedByteIdentical(t *testing.T) {
	srv1 := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(service.NewServerWith(service.ServerOptions{}).Handler())
	defer srv2.Close()
	dir := t.TempDir()

	localCSV, localJSONL, localOut := exportFiles(t, filepath.Join(dir, "local"), "matrices")
	shardCSV, shardJSONL, shardOut := exportFiles(t, filepath.Join(dir, "shard"), "matrices",
		"-backend", srv1.URL+","+srv2.URL)
	if shardCSV != localCSV {
		t.Fatal("sharded matrices.csv differs from local")
	}
	if shardJSONL != localJSONL {
		t.Fatal("sharded matrices.jsonl differs from local")
	}
	for _, out := range []string{localOut, shardOut} {
		for _, family := range []string{"grid2d", "grid3d", "powerlaw", "banded"} {
			if !strings.Contains(out, "\n  "+family+" ") {
				t.Fatalf("family %s missing from the report:\n%s", family, out)
			}
		}
	}
}

// failFirstHandler 502s its first failN /v1/batch calls, then serves.
type failFirstHandler struct {
	inner   http.Handler
	failN   atomic.Int64
	batches atomic.Int64
}

func (h *failFirstHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/batch" {
		h.batches.Add(1)
		if h.failN.Add(-1) >= 0 {
			http.Error(w, "down", http.StatusBadGateway)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

// -progress reports completed/total rows on stderr without disturbing the
// grid output or exports.
func TestGridProgress(t *testing.T) {
	old := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(pr)
		done <- string(b)
	}()
	var sb strings.Builder
	runErr := run([]string{"-exp", "grid", "-scale", "small", "-progress"}, &sb)
	pw.Close()
	os.Stderr = old
	stderr := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !strings.Contains(stderr, "rows/s)") || !strings.Contains(stderr, "grid: ") {
		t.Fatalf("progress output missing from stderr: %q", stderr)
	}
	if !strings.Contains(sb.String(), " rows") {
		t.Fatalf("grid output disturbed:\n%s", sb.String())
	}
}

// -exp bench writes a well-formed BENCH_solver.json with the solver
// hot-path records: the kernel benchmarks must report (near) zero
// steady-state allocations and a positive throughput.
func TestBenchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("bench mode in -short mode")
	}
	// Each entry runs for a fixed 100ms instead of the default second: the
	// test checks the report's shape and allocation counts, never its
	// timings. Fast entries still run enough iterations to amortize their
	// first call's buffer growth, which the kernel bound assumes.
	benchtime := flag.Lookup("test.benchtime").Value
	saved := benchtime.String()
	if err := benchtime.Set("100ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = benchtime.Set(saved) })
	out := filepath.Join(t.TempDir(), "BENCH_solver.json")
	var sb strings.Builder
	if err := run([]string{"-exp", "bench", "-bench-nodes", "500", "-bench-out", out}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "liu-profile/uniform") {
		t.Fatalf("summary table missing kernel rows:\n%s", sb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Description string `json:"description"`
		Benchmarks  []struct {
			Name        string  `json:"name"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
			RowsPerSec  float64 `json:"rows_per_sec"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_solver.json is not valid JSON: %v", err)
	}
	if len(report.Benchmarks) < 13 {
		t.Fatalf("only %d benchmark records", len(report.Benchmarks))
	}
	seen := map[string]bool{}
	for _, b := range report.Benchmarks {
		seen[b.Name] = true
		if b.NsPerOp <= 0 || b.RowsPerSec <= 0 {
			t.Errorf("%s: non-positive metrics: %+v", b.Name, b)
		}
		kernel := strings.HasPrefix(b.Name, "liu-profile/") || strings.HasPrefix(b.Name, "liu-exact/")
		if kernel && b.AllocsPerOp > 4 {
			t.Errorf("%s: %d allocs/op, kernel should be (near) allocation-free", b.Name, b.AllocsPerOp)
		}
		if b.Name == "permute/grid2d-100k" && b.AllocsPerOp > 16 {
			t.Errorf("%s: %d allocs/op, Permute should make a fixed handful", b.Name, b.AllocsPerOp)
		}
	}
	for _, name := range []string{"liu-exact/path", "minmem/path", "amd/rmat-5000", "nd/grid2d-100k", "permute/grid2d-100k", "cache-hits/64x4", "batch-binary-refs/64x4", "digest/tree-1k"} {
		if !seen[name] {
			t.Errorf("benchmark %s missing", name)
		}
	}
}
