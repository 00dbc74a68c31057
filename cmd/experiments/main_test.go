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

// The same grid exported through every backend — local, cached cold, cached
// warm (across a process-like store reopen) and HTTP — must be byte-identical
// once -notime zeroes the seconds column.
func TestGridBackendsByteIdentical(t *testing.T) {
	srv := httptest.NewServer(service.NewServer(nil, 0).Handler())
	defer srv.Close()
	dir := t.TempDir()
	store := filepath.Join(dir, "rows.paged")

	gridFiles := func(name string, backendArgs ...string) (csv, jsonl string, out string) {
		t.Helper()
		sub := filepath.Join(dir, name)
		var sb strings.Builder
		args := append([]string{"-exp", "grid", "-scale", "small", "-notime", "-csv", sub}, backendArgs...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := os.ReadFile(filepath.Join(sub, "grid.csv"))
		if err != nil {
			t.Fatal(err)
		}
		j, err := os.ReadFile(filepath.Join(sub, "grid.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return string(c), string(j), sb.String()
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
	if err := run([]string{"-exp", "grid", "-scale", "small", "-backend", "bogus"}, &sb); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// A comma-separated -backend URL list shards the grid across the servers;
// the exports must stay byte-identical to local, a mid-grid server failure
// included (the shard resubmits those chunks to the other server).
func TestGridShardedBackendByteIdentical(t *testing.T) {
	srv1 := httptest.NewServer(service.NewServer(nil, 0).Handler())
	defer srv1.Close()
	flaky := &failFirstHandler{inner: service.NewServer(nil, 0).Handler()}
	flaky.failN.Store(1)
	srv2 := httptest.NewServer(flaky)
	defer srv2.Close()
	dir := t.TempDir()

	gridFiles := func(name string, backendArgs ...string) (csv, jsonl string) {
		t.Helper()
		sub := filepath.Join(dir, name)
		var sb strings.Builder
		args := append([]string{"-exp", "grid", "-scale", "small", "-notime", "-csv", sub}, backendArgs...)
		if err := run(args, &sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := os.ReadFile(filepath.Join(sub, "grid.csv"))
		if err != nil {
			t.Fatal(err)
		}
		j, err := os.ReadFile(filepath.Join(sub, "grid.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return string(c), string(j)
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

	// Both dispatch policies and cache warming produce the same bytes.
	rrCSV, rrJSONL := gridFiles("roundrobin", "-backend", srv1.URL+","+srv2.URL,
		"-retries", "0", "-shard-policy", "roundrobin", "-warm")
	if rrCSV != localCSV || rrJSONL != localJSONL {
		t.Fatal("round-robin warmed shard exports differ from local")
	}

	// The binary transport across the same shard is byte-identical too.
	binCSV, binJSONL := gridFiles("binary", "-backend", srv1.URL+","+srv2.URL,
		"-retries", "0", "-binary")
	if binCSV != localCSV || binJSONL != localJSONL {
		t.Fatal("binary-transport shard exports differ from local")
	}

	// Malformed lists and unknown policies are rejected.
	var sb strings.Builder
	if err := run([]string{"-exp", "grid", "-scale", "small", "-backend", srv1.URL + ",bogus"}, &sb); err == nil {
		t.Fatal("non-URL shard member accepted")
	}
	if err := run([]string{"-exp", "grid", "-scale", "small",
		"-backend", srv1.URL + "," + srv2.URL, "-shard-policy", "fastest"}, &sb); err == nil {
		t.Fatal("unknown shard policy accepted")
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
	for _, name := range []string{"liu-exact/path", "minmem/path", "nd/grid2d-100k", "permute/grid2d-100k", "cache-hits/64x4", "digest/tree-1k"} {
		if !seen[name] {
			t.Errorf("benchmark %s missing", name)
		}
	}
}

// -exp load writes a well-formed BENCH_load.json: per tenant count, the
// latency percentiles and throughput are positive, accepted jobs match the
// configured volume, and with quotas this tight admission control must
// have rejected work (-load-require-rejections would exit nonzero
// otherwise — the CI smoke job leans on exactly that).
func TestLoadMode(t *testing.T) {
	if testing.Short() {
		t.Skip("load mode backs off for whole seconds on 429s")
	}
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var sb strings.Builder
	err := run([]string{"-exp", "load",
		"-load-tenants", "1,2", "-load-batches", "2", "-load-jobs", "6",
		"-load-nodes", "120", "-load-rate", "20", "-load-burst", "6",
		"-load-require-rejections", "-load-out", out}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Backend string `json:"backend"`
		Runs    []struct {
			Tenants      int     `json:"tenants"`
			P50Ms        float64 `json:"p50_ms"`
			P99Ms        float64 `json:"p99_ms"`
			RowsPerSec   float64 `json:"rows_per_sec"`
			AcceptedJobs int64   `json:"accepted_jobs"`
			RejectedJobs int64   `json:"rejected_jobs"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_load.json is not valid JSON: %v", err)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(report.Runs))
	}
	for _, r := range report.Runs {
		if r.P50Ms <= 0 || r.P99Ms < r.P50Ms || r.RowsPerSec <= 0 {
			t.Errorf("tenants=%d: implausible latency/throughput: %+v", r.Tenants, r)
		}
		if want := int64(r.Tenants * 2 * 6); r.AcceptedJobs != want {
			t.Errorf("tenants=%d: accepted %d jobs, want %d", r.Tenants, r.AcceptedJobs, want)
		}
		if r.RejectedJobs == 0 {
			t.Errorf("tenants=%d: quotas this tight must reject work", r.Tenants)
		}
	}

	// A queue quota below the batch size would retry forever: refused up front.
	if err := run([]string{"-exp", "load", "-load-jobs", "8", "-load-queue", "4"}, io.Discard); err == nil {
		t.Fatal("-load-queue below -load-jobs accepted")
	}
	if err := run([]string{"-exp", "load", "-load-tenants", "zero"}, io.Discard); err == nil {
		t.Fatal("bad -load-tenants accepted")
	}
	if err := run([]string{"-exp", "load", "-load-backend", "ftp://nope"}, io.Discard); err == nil {
		t.Fatal("bad -load-backend accepted")
	}
}
