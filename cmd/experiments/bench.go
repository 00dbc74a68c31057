package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hillvalley"
	"repro/internal/ordering"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// benchRecord is one row of BENCH_solver.json: a named micro-benchmark
// over a generated tree corpus with the standard Go benchmark metrics plus
// a throughput figure (tree nodes or evaluation rows per second).
type benchRecord struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
}

// benchReport is the top-level BENCH_solver.json document.
type benchReport struct {
	Description string        `json:"description"`
	Benchmarks  []benchRecord `json:"benchmarks"`
}

// benchCorpus generates the benchmark trees: one shape per attachment
// kind at the given node count, deterministic across runs.
func benchCorpus(nodes int) (map[string]*tree.Tree, error) {
	shapes := map[string]tree.AttachKind{
		"uniform":      tree.AttachUniform,
		"preferential": tree.AttachPreferential,
		"chainy":       tree.AttachChainy,
	}
	out := make(map[string]*tree.Tree, len(shapes))
	for name, kind := range shapes {
		rng := rand.New(rand.NewSource(2011))
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 100, MaxN: 40, Attach: kind})
		if err != nil {
			return nil, err
		}
		out[name] = tr
	}
	return out, nil
}

// bandPath builds the assembly tree of band-5000 (half bandwidth 8) under
// the natural ordering with relax 1: a path of about 2,500 nodes.
func bandPath() (*tree.Tree, error) {
	m, err := sparse.BandMatrix(5000, 8)
	if err != nil {
		return nil, err
	}
	res, err := symbolic.AssemblyTree(m.Symmetrize(), symbolic.AssemblyOptions{Relax: 1})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}

// hitBatch builds cache-hits/64x4's batch: 16 jobs for each instance,
// three MinMemory solvers and then eviction policies that replay the
// instance's minmem traversal at its MaxMemReq, the midpoint and the
// traversal's peak, so the policy jobs of an instance share one order.
func hitBatch(insts []schedule.Instance) ([]schedule.Job, error) {
	const perInstance = 16
	budgets := func(t *tree.Tree, out schedule.Outcome) ([]int64, error) {
		lo := t.MaxMemReq()
		return []int64{lo, (lo + out.Memory) / 2, out.Memory}, nil
	}
	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), []string{"postorder", "liu", "minmem"}, "minmem", schedule.EvictionPolicyNames(), budgets)
	if err != nil {
		return nil, err
	}
	var jobs []schedule.Job
	taken := map[string]int{}
	for {
		j, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if taken[j.Instance] < perInstance {
			taken[j.Instance]++
			jobs = append(jobs, j)
		}
	}
	if len(jobs) != perInstance*len(insts) {
		return nil, fmt.Errorf("hit batch has %d jobs, want %d", len(jobs), perInstance*len(insts))
	}
	return jobs, nil
}

// record runs fn under testing.Benchmark and converts the result, deriving
// RowsPerSec from rows processed per op.
func record(name string, nodes int, rowsPerOp float64, fn func(b *testing.B)) benchRecord {
	r := testing.Benchmark(fn)
	rec := benchRecord{
		Name:        name,
		Nodes:       nodes,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if rowsPerOp > 0 && rec.NsPerOp > 0 {
		rec.RowsPerSec = rowsPerOp / (rec.NsPerOp / 1e9)
	}
	return rec
}

// runBench is the -exp bench mode: it benchmarks the solver hot path —
// the hillvalley kernel (LiuProfile/LiuExact), the unified simulator's
// peak accounting and Best-K eviction replay, and the local batch
// evaluator — over generated tree corpora, prints a summary table and
// writes the records to outPath (BENCH_solver.json), so every future PR
// can diff the perf trajectory.
func runBench(w io.Writer, outPath string, nodes int) error {
	trees, err := benchCorpus(nodes)
	if err != nil {
		return err
	}
	report := benchReport{
		Description: "solver hot-path benchmarks (cmd/experiments -exp bench); ns_per_op and allocs_per_op from testing.Benchmark, rows_per_sec = tree nodes (kernel/simulator) or evaluation rows (batch) per second; liu-exact/path and minmem/path run both exact solvers on the ~2,500-node path that band-5000 becomes under the natural ordering with relax 1, at a fixed size independent of -bench-nodes; batch-local is the cold solver-bound path, batch-local-binary streams the same grid from a warmed cache through the pooled chunk engine into the framed binary row form, batch-remote-{json,binary} contrast the two transports over one warmed server; store-paged/{put,get} measure paged row-store overwrite and replay throughput; cache-hits/64x4 answers one 64-job batch over four of the batch grid's instances entirely from a paged store through the cached backend (rows_per_sec = jobs), digest/tree-1k hashes a 1,000-node tree (rows_per_sec = nodes), both at fixed sizes; mm-parse is the zero-alloc MatrixMarket parser (rows_per_sec = coordinate entries), amd, nd, permute and etree-counts run the AMD ordering, nested dissection (leaf size 32), PAPᵀ under the nested-dissection permutation and the skeleton column counts on the 316x316 grid (~100k columns, rows_per_sec = columns), corpus-pipeline streams the smoke manifest end to end (rows_per_sec = tree instances) — all six at fixed problem sizes independent of -bench-nodes",
	}
	fmt.Fprintf(w, "Solver benchmarks — %d-node corpora, one tree per shape\n", nodes)
	fmt.Fprintf(w, "  %-34s %14s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "rows/sec")
	add := func(rec benchRecord) {
		report.Benchmarks = append(report.Benchmarks, rec)
		fmt.Fprintf(w, "  %-34s %14.0f %12d %14.0f\n", rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.RowsPerSec)
	}
	for _, shape := range []string{"uniform", "preferential", "chainy"} {
		tr := trees[shape]
		p := float64(tr.Len())
		add(record("liu-profile/"+shape, tr.Len(), p, func(b *testing.B) {
			var k hillvalley.Kernel
			var dst []hillvalley.Segment
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = k.Profile(tr, dst[:0])
			}
		}))
		add(record("liu-exact/"+shape, tr.Len(), p, func(b *testing.B) {
			var k hillvalley.Kernel
			var order []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, order = k.Exact(tr, order[:0])
			}
		}))
		order := tr.TopDown()
		add(record("simulate-peak/"+shape, tr.Len(), p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Simulate(tr, order, schedule.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		}))
		sim, err := schedule.Simulate(tr, order, schedule.Config{})
		if err != nil {
			return err
		}
		budget := tr.MaxMemReq() + (sim.Peak-tr.MaxMemReq())/2
		ev, err := schedule.BestK(schedule.BestKWindow)
		if err != nil {
			return err
		}
		add(record("evict-best-k/"+shape, tr.Len(), p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: budget, Evict: ev}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	// Both exact solvers on a chain: band-5000 (half bandwidth 8) under the
	// natural ordering with relax 1 amalgamates to a 2,496-node path, the
	// shape of the real-matrix grid's band and natural-order instances. A
	// fixed problem size, independent of -bench-nodes.
	path, err := bandPath()
	if err != nil {
		return err
	}
	add(record("liu-exact/path", path.Len(), float64(path.Len()), func(b *testing.B) {
		var k hillvalley.Kernel
		var order []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, order = k.Exact(path, order[:0])
		}
	}))
	add(record("minmem/path", path.Len(), float64(path.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = traversal.MinMem(path)
		}
	}))
	// Batch evaluator throughput: a small MinMemory grid on the local
	// backend, reported as evaluation rows per second.
	var insts []schedule.Instance
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 400, MaxF: 50, MaxN: 20, Attach: tree.AttachKind(i % 3)})
		if err != nil {
			return err
		}
		insts = append(insts, schedule.Instance{Name: fmt.Sprintf("rand-%d", i), Tree: tr})
	}
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "liu", "minmem"})
	add(record("batch-local/minmemory-grid", 0, float64(len(jobs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (schedule.Local{}).Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The allocation-free batch spine: the same grid answered from a warmed
	// content-addressed cache and streamed through the pooled chunk engine
	// into the framed binary row form. The cold batch-local path above is
	// solver-bound; this entry isolates the row-serving machinery the binary
	// wire format exists for.
	cached := schedule.NewCached(schedule.Local{}, nil)
	if _, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		return err
	}
	add(record("batch-local-binary/minmemory-grid", 0, float64(len(jobs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := schedule.NewBinaryRowSink(io.Discard)
			if err := cached.Stream(context.Background(), schedule.SliceSource(jobs), sink, schedule.StreamOptions{}); err != nil {
				b.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// Paged row-store throughput over the same grid's rows: puts overwrite a
	// fixed key set (the cached backend's steady state), gets replay it
	// through the store's page cache — the out-of-core read path.
	rows, err := (schedule.Local{}).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		return err
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = schedule.CacheKey(j)
	}
	storeDir, err := os.MkdirTemp("", "bench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	st, err := schedule.OpenPagedStore(filepath.Join(storeDir, "rows.paged"))
	if err != nil {
		return err
	}
	for i := range keys { // warm once so every get hits
		if err := st.Put(keys[i], rows[i]); err != nil {
			return err
		}
	}
	add(record("store-paged/put", 0, float64(len(jobs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range keys {
				if err := st.Put(keys[k], rows[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}))
	add(record("store-paged/get", 0, float64(len(jobs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range keys {
				if _, ok := st.Get(keys[k]); !ok {
					b.Fatalf("key %d missing from the paged store", k)
				}
			}
		}
	}))
	if err := st.Close(); err != nil {
		return err
	}
	// The cache hit path: one 64-job batch over four of the grid's
	// instances, every job already in a paged store, the shape of the
	// batches serve-shard's servers answer. Keys are built per call, so
	// the entry moves with tree and order hashing as well as store reads.
	hitJobs, err := hitBatch(insts[:4])
	if err != nil {
		return err
	}
	hitStore, err := schedule.OpenPagedStore(filepath.Join(storeDir, "hits.paged"))
	if err != nil {
		return err
	}
	defer hitStore.Close()
	hitCache := schedule.NewCached(schedule.Local{}, hitStore)
	if _, err := hitCache.Run(context.Background(), hitJobs, schedule.BatchOptions{}); err != nil {
		return err
	}
	_, warmMisses := hitCache.Counters()
	add(record("cache-hits/64x4", 0, float64(len(hitJobs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hitCache.Run(context.Background(), hitJobs, schedule.BatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if _, misses := hitCache.Counters(); misses != warmMisses {
		return fmt.Errorf("cache-hits/64x4: %d misses in an all-hit batch", misses-warmMisses)
	}
	// The tree digest, which keys every cache entry, on a 1,000-node tree.
	digestTree, err := tree.Random(rand.New(rand.NewSource(2011)), tree.RandomOptions{Nodes: 1000, MaxF: 100, MaxN: 40})
	if err != nil {
		return err
	}
	add(record("digest/tree-1k", digestTree.Len(), float64(digestTree.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			digestTree.Digest()
		}
	}))
	// Remote throughput over the same warmed cache, JSON vs binary: the
	// contrast is pure transport (encoding, HTTP framing, decoding).
	srv := httptest.NewServer(service.NewServerWith(service.ServerOptions{Backend: cached}).Handler())
	defer srv.Close()
	for _, mode := range []struct {
		name   string
		binary bool
	}{{"batch-remote-json/minmemory-grid", false}, {"batch-remote-binary/minmemory-grid", true}} {
		client := service.NewClient(srv.URL, nil)
		client.Binary = mode.binary
		add(record(mode.name, 0, float64(len(jobs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	// Real-matrix front end, fixed problem sizes (independent of -bench-nodes
	// so the CI gate compares like with like): the zero-alloc MatrixMarket
	// parser (rows/sec = coordinate entries), AMD, nested dissection,
	// Permute and the skeleton column counts on the ~100k-node 2D model
	// problem (rows/sec = matrix columns), and the smoke corpus pipeline
	// end to end (rows/sec = tree instances).
	gm, err := sparse.Grid2D(200, 200)
	if err != nil {
		return err
	}
	var mmBuf bytes.Buffer
	if err := gm.WriteMatrixMarket(&mmBuf); err != nil {
		return err
	}
	mmData := mmBuf.Bytes()
	var parser sparse.Parser
	if _, err := parser.ParseBytes(mmData); err != nil { // warm the buffers
		return err
	}
	add(record("mm-parse/grid2d-200", gm.N(), float64(gm.NNZ()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parser.ParseBytes(mmData); err != nil {
				b.Fatal(err)
			}
		}
	}))
	ga, err := sparse.Grid2D(316, 316)
	if err != nil {
		return err
	}
	add(record("amd/grid2d-100k", ga.N(), float64(ga.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ordering.AMD(ga); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// Nested dissection at the corpus's leaf size, then PAPᵀ under its
	// permutation: the two front-end stages rebuilt on flat arrays. Both
	// are meant to stay near AMD's cost on the same matrix.
	ndOpt := ordering.NestedDissectionOptions{LeafSize: 32}
	add(record("nd/grid2d-100k", ga.N(), float64(ga.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ordering.NestedDissection(ga, ndOpt); err != nil {
				b.Fatal(err)
			}
		}
	}))
	ndPerm, err := ordering.NestedDissection(ga, ndOpt)
	if err != nil {
		return err
	}
	add(record("permute/grid2d-100k", ga.N(), float64(ga.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ga.Permute(ndPerm); err != nil {
				b.Fatal(err)
			}
		}
	}))
	parentA, err := symbolic.EliminationTree(ga)
	if err != nil {
		return err
	}
	add(record("etree-counts/grid2d-100k", ga.N(), float64(ga.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.ColumnCounts(ga, parentA); err != nil {
				b.Fatal(err)
			}
		}
	}))
	smoke := corpus.SmokeManifest()
	smokeInstances := float64(len(smoke) * len(corpus.OrderingNames()) * 2)
	add(record("corpus-pipeline/smoke", 0, smokeInstances, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipe, err := corpus.NewPipeline(smoke, corpus.PipelineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, ok, err := pipe.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			pipe.Close()
		}
	}))
	fmt.Fprintln(w)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d benchmark records to %s\n", len(report.Benchmarks), outPath)
	return nil
}
