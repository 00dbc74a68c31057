// Command experiments regenerates every table and figure of Section VI of
// the paper plus demonstrations of Theorems 1 and 2. Output is textual:
// Table I/II-style statistic blocks and ASCII performance profiles for the
// figures; -csv writes machine-readable profile curves next to them.
//
// The grid experiment runs an arbitrary (instance × algorithm) grid on a
// selectable evaluation backend — in-process, cache-decorated, or a remote
// scheduled server — streaming one row per cell as it completes and
// exporting the rows as CSV and JSON Lines.
//
// Usage:
//
//	experiments -exp all -scale medium
//	experiments -exp fig7 -scale full -csv out/
//	experiments -exp grid -algos postorder,liu,minmem -csv out/
//	experiments -exp grid -backend cached -cache rows.paged -csv out/
//	experiments -exp grid -backend http://127.0.0.1:8080 -notime -csv out/
//	experiments -exp grid -backend http://h1:8080,http://h2:8080 -progress
//
// A comma-separated -backend URL list shards the grid: chunks of jobs fan
// out across the servers concurrently, each to the server with the lowest
// expected completion time, so a slow or busy server naturally receives
// fewer chunks. A failed chunk is resubmitted to another server and the
// failing server is quarantined with exponential backoff, health-probed,
// and readmitted when it recovers; the merged rows are bit-identical to a
// local run (Seconds aside). -hedge-after races a straggling chunk on a
// second server. Servers started with scheduled -peers warm each other's
// caches. After the grid the shard's scheduling counters (resubmissions,
// quarantines, readmissions, hedges) and per-server dispatch statistics
// are reported. -progress reports rows/sec and completed/total on stderr,
// so long sharded sweeps are observable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1 | fig5 | fig6 | fig7 | fig8 | table2 | fig9 | theorem1 | theorem2 | ablation | grid | matrices | bench | all (matrices and bench run only when selected explicitly)")
	scaleName := fs.String("scale", "medium", "dataset scale: small | medium | full")
	csvDir := fs.String("csv", "", "directory for CSV profile exports (optional)")
	seeds := fs.Int("seeds", 3, "random-weight copies per tree for table2/fig9")
	workers := fs.Int("workers", 0, "parallel workers for table1 and grid (0 = GOMAXPROCS)")
	algos := fs.String("algos", "postorder,liu,minmem", "MinMemory algorithms for the grid experiment")
	backendSpec := fs.String("backend", "local", "grid evaluation backend: local | cached | scheduled-server URL(s); a comma-separated URL list shards the grid across the servers")
	cachePath := fs.String("cache", "", "paged row-store path for -backend cached (empty = in-memory)")
	retries := fs.Int("retries", 2, "per-chunk submission retries for remote backends (transient errors only)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge straggler chunks after this floor delay (0 = no hedging; sharded backends)")
	progress := fs.Bool("progress", false, "report grid progress (completed/total, rows/sec) on stderr")
	noTime := fs.Bool("notime", false, "zero the seconds column of grid exports, making CSV/JSONL byte-identical across backends and reruns")
	benchOut := fs.String("bench-out", "BENCH_solver.json", "output path for the -exp bench record file")
	benchNodes := fs.Int("bench-nodes", 20_000, "tree size of the -exp bench corpora")
	corpusName := fs.String("corpus", "smoke", "-exp matrices manifest: smoke (tiny generator-only) or default (real matrices with generator fallbacks)")
	corpusDir := fs.String("corpus-dir", "", "local MatrixMarket mirror for -exp matrices; missing files fall back to the deterministic generators")
	if err := fs.Parse(args); err != nil {
		return err
	}
	grid := gridConfig{
		algos: *algos, workers: *workers, csvDir: *csvDir,
		backend: *backendSpec, cachePath: *cachePath, retries: *retries,
		hedgeAfter: *hedgeAfter, progress: *progress, noTime: *noTime,
	}
	if *exp == "bench" {
		return runBench(w, *benchOut, *benchNodes)
	}
	if *exp == "matrices" {
		return runMatrices(w, matricesConfig{grid: grid, corpus: *corpusName, corpusDir: *corpusDir})
	}
	manifest, err := corpus.SuiteManifest(*scaleName)
	if err != nil {
		return err
	}
	want := func(names ...string) bool {
		for _, n := range names {
			if *exp == n || *exp == "all" {
				return true
			}
		}
		return false
	}
	writeCSV := func(name string, curves []profile.Curve, maxTau float64) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		var taus []float64
		const steps = 200
		for i := 0; i <= steps; i++ {
			taus = append(taus, 1+(maxTau-1)*float64(i)/steps)
		}
		return profile.WriteCSV(f, curves, taus)
	}

	var insts []schedule.Instance
	needSuite := want("table1", "fig5", "fig6", "fig7", "fig8", "table2", "fig9", "ablation", "grid")
	if needSuite {
		insts, err = experiments.Suite(manifest)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "dataset: %d assembly trees (%s scale)\n\n", len(insts), *scaleName)
	}

	if want("table1", "fig5") {
		mc, err := experiments.RunMemoryComparisonParallel(context.Background(), insts, *workers)
		if err != nil {
			return err
		}
		if want("table1") {
			fmt.Fprint(w, experiments.FormatStats("Table I — PostOrder memory vs optimal (assembly trees)", mc.Stats()))
			fmt.Fprintln(w)
		}
		if want("fig5") {
			curves, err := mc.Profile(true)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Figure 5 — memory profile, PostOrder vs optimal (non-optimal cases only)")
			fmt.Fprintln(w, profile.Render(curves, 60, 12, 1.25))
			fmt.Fprintln(w, experiments.FormatCurveSummaries(curves))
			if err := writeCSV("fig5", curves, 1.25); err != nil {
				return err
			}
		}
	}
	if want("fig6") {
		tr := experiments.RunTimings(insts)
		curves, err := tr.Profile()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 6 — run time profile of the three MinMemory algorithms")
		fmt.Fprintln(w, profile.Render(curves, 60, 12, 5))
		fmt.Fprintln(w, experiments.FormatCurveSummaries(curves))
		counts := tr.FastestCounts()
		for _, alg := range experiments.TimingAlgorithms {
			fmt.Fprintf(w, "  %-10s fastest (or tied) on %d/%d instances\n", schedule.DisplayName(alg), counts[alg], len(tr.Names))
		}
		fmt.Fprintln(w)
		if err := writeCSV("fig6", curves, 5); err != nil {
			return err
		}
	}
	if want("fig7") {
		hr, err := experiments.RunHeuristics(insts)
		if err != nil {
			return err
		}
		curves, err := hr.Profile()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 7 — I/O volume profile of the six eviction heuristics (MinMem traversals)")
		fmt.Fprintln(w, profile.Render(curves, 60, 12, 5))
		fmt.Fprintln(w, experiments.FormatCurveSummaries(curves))
		if err := writeCSV("fig7", curves, 5); err != nil {
			return err
		}
	}
	if want("fig8") {
		tio, err := experiments.RunTraversalIO(insts)
		if err != nil {
			return err
		}
		curves, err := tio.Profile()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 8 — I/O volume profile of the three traversal algorithms + First Fit")
		fmt.Fprintln(w, profile.Render(curves, 60, 12, 5))
		fmt.Fprintln(w, experiments.FormatCurveSummaries(curves))
		if err := writeCSV("fig8", curves, 5); err != nil {
			return err
		}
	}
	if want("table2", "fig9") {
		rnd := experiments.RandomWeightSuite(insts, *seeds)
		mc := experiments.RunMemoryComparison(rnd)
		if want("table2") {
			fmt.Fprint(w, experiments.FormatStats("Table II — PostOrder memory vs optimal (random-weight trees)", mc.Stats()))
			fmt.Fprintln(w)
		}
		if want("fig9") {
			curves, err := mc.Profile(false)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Figure 9 — memory profile, PostOrder vs optimal (random trees)")
			fmt.Fprintln(w, profile.Render(curves, 60, 12, 2.0))
			fmt.Fprintln(w, experiments.FormatCurveSummaries(curves))
			if err := writeCSV("fig9", curves, 2.0); err != nil {
				return err
			}
		}
	}
	if want("ablation") {
		out, err := experiments.FormatAblations(insts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Design ablations (see DESIGN.md)")
		fmt.Fprint(w, out)
		fmt.Fprintln(w)
	}
	if want("grid") {
		if err := runGrid(w, insts, grid); err != nil {
			return err
		}
	}
	return runTheorems(w, want)
}

// gridConfig carries the grid experiment's flag values.
type gridConfig struct {
	algos      string
	workers    int
	csvDir     string
	backend    string
	cachePath  string
	retries    int
	hedgeAfter time.Duration
	progress   bool
	noTime     bool
}

// newBackend resolves a -backend spec: "local", "cached" (decorating local
// with an in-memory store, or the paged row store at cachePath), the URL of
// a scheduled evaluation server, or a comma-separated URL list, which builds
// a schedule.Shard fanning chunks out across the servers. The cleanup func
// flushes the on-disk store; call it when the grid is done.
func newBackend(cfg gridConfig) (schedule.Backend, func() error, error) {
	nop := func() error { return nil }
	newClient := func(url string) (*service.Client, error) {
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("backend URL %q is not http(s)", url)
		}
		c := service.NewClient(url, nil)
		c.Retries = cfg.retries
		return c, nil
	}
	spec := cfg.backend
	switch {
	case spec == "local":
		return schedule.Local{}, nop, nil
	case spec == "cached":
		if cfg.cachePath == "" {
			return schedule.NewCached(schedule.Local{}, nil), nop, nil
		}
		store, err := schedule.OpenPagedStore(cfg.cachePath)
		if err != nil {
			return nil, nil, err
		}
		return schedule.NewCached(schedule.Local{}, store), store.Close, nil
	case strings.Contains(spec, ","):
		var children []schedule.Backend
		for _, url := range strings.Split(spec, ",") {
			if url = strings.TrimSpace(url); url == "" {
				continue
			}
			c, err := newClient(url)
			if err != nil {
				return nil, nil, err
			}
			children = append(children, c)
		}
		shard, err := schedule.NewShardWith(schedule.ShardOptions{HedgeAfter: cfg.hedgeAfter}, children...)
		if err != nil {
			return nil, nil, err
		}
		return shard, nop, nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		c, err := newClient(spec)
		if err != nil {
			return nil, nil, err
		}
		return c, nop, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (want local, cached or http:// URLs)", spec)
	}
}

// gridProgress reports completed/total and rows/sec on w, updated in place
// (carriage return) at most a few times a second, with a final newline.
type gridProgress struct {
	w     io.Writer
	total int
	done  int
	start time.Time
	last  time.Time
}

func newGridProgress(w io.Writer, total int) *gridProgress {
	now := time.Now()
	return &gridProgress{w: w, total: total, start: now, last: now}
}

// row records one completed row; callers serialize it (the OnRow contract).
func (p *gridProgress) row() {
	p.done++
	now := time.Now()
	if p.done != p.total && now.Sub(p.last) < 200*time.Millisecond {
		return
	}
	p.last = now
	rate := float64(p.done) / (now.Sub(p.start).Seconds() + 1e-9)
	fmt.Fprintf(p.w, "\rgrid: %d/%d rows (%.0f rows/s)", p.done, p.total, rate)
	if p.done == p.total {
		fmt.Fprintln(p.w)
	}
}

// runGrid evaluates an (instance × algorithm) grid on the selected
// evaluation backend: every MinMemory algorithm in cfg.algos on every
// instance, plus the six eviction policies replaying MinMem traversals
// across the memory sweep. Rows stream to w as they complete; with
// cfg.csvDir set they are also exported as grid.csv and grid.jsonl (with
// cfg.noTime, the seconds column is zeroed so the exports are
// byte-identical across backends and reruns).
func runGrid(w io.Writer, insts []schedule.Instance, cfg gridConfig) error {
	workers, csvDir := cfg.workers, cfg.csvDir
	var algNames []string
	for _, n := range strings.Split(cfg.algos, ",") {
		if n = strings.TrimSpace(n); n != "" {
			algNames = append(algNames, n)
		}
	}
	jobs := schedule.MinMemoryGrid(insts, algNames)
	// Policy sweep budgets: the trivial floor and the midpoint to the
	// in-core optimum, read off the orderBy (minmem) outcome the grid has
	// already computed.
	memories := func(t *tree.Tree, out schedule.Outcome) ([]int64, error) {
		lo := t.MaxMemReq()
		if mid := (lo + out.Memory) / 2; mid != lo {
			return []int64{lo, mid}, nil
		}
		return []int64{lo}, nil
	}
	// The header and the -progress total need the job count up front, so
	// the policy half is drained into the slice after the MinMemory block.
	polJobs, err := schedule.GridSource(schedule.InstanceSliceSource(insts), nil, "minmem", schedule.EvictionPolicyNames(), memories)
	if err != nil {
		return err
	}
	for {
		j, ok, err := polJobs.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	backend, cleanup, err := newBackend(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintf(w, "Grid — %d jobs (%d instances × {%s} + policy sweep) on backend %s, streamed as completed\n",
		len(jobs), len(insts), strings.Join(algNames, ","), backend.Capabilities().Name)
	fmt.Fprintf(w, "  %-24s %-12s %10s %12s %12s\n", "instance", "algorithm", "budget", "memory", "io")
	var prog *gridProgress
	if cfg.progress {
		prog = newGridProgress(os.Stderr, len(jobs))
	}
	rows, err := backend.Run(context.Background(), jobs, schedule.BatchOptions{
		Workers: workers,
		OnRow: func(r schedule.Row) {
			fmt.Fprintf(w, "  %-24s %-12s %10d %12d %12d\n", r.Instance, r.Algorithm, r.Budget, r.Memory, r.IO)
			if prog != nil {
				prog.row()
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d rows\n", len(rows))
	if s, ok := backend.(*schedule.Shard); ok {
		reportShard(w, s)
	}
	if c, ok := backend.(*schedule.Cached); ok {
		hits, misses := c.Counters()
		fmt.Fprintf(w, "  cache: %d hits, %d misses\n", hits, misses)
	}
	fmt.Fprintln(w)
	if csvDir == "" {
		return cleanup()
	}
	if cfg.noTime {
		for i := range rows {
			rows[i].Seconds = 0
		}
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(csvDir, "grid.csv"))
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := schedule.WriteRowsCSV(cf, rows); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(csvDir, "grid.jsonl"))
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := schedule.WriteRowsJSON(jf, rows); err != nil {
		return err
	}
	return cleanup()
}

// reportShard prints the shard's scheduling counters and per-server
// dispatch statistics after a grid, so operators can see how the adaptive
// scheduler spread the work and which servers flapped.
func reportShard(w io.Writer, s *schedule.Shard) {
	c := s.Counters()
	if c.Resubmissions > 0 || c.Quarantines > 0 || c.Readmissions > 0 {
		fmt.Fprintf(w, "  shard: %d resubmissions, %d quarantines, %d readmissions\n",
			c.Resubmissions, c.Quarantines, c.Readmissions)
	}
	if c.Hedges > 0 {
		fmt.Fprintf(w, "  shard: %d hedges, %d hedge wins\n", c.Hedges, c.HedgeWins)
	}
	for _, cs := range s.ChildStats() {
		state := ""
		if cs.Quarantined {
			state = " (quarantined)"
		}
		fmt.Fprintf(w, "  shard child %s: %d chunks, %d rows, %d failures, %.0f rows/s%s\n",
			cs.Name, cs.Chunks, cs.Rows, cs.Failures, cs.RowsPerSec, state)
	}
}

// runTheorems prints the Theorem 1 and 2 demonstrations.
func runTheorems(w io.Writer, want func(...string) bool) error {
	if want("theorem1") {
		rows, err := experiments.RunTheorem1(4, 6, 400, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Theorem 1 — nested harpoons (b=4, M=400, ε=1): unbounded PostOrder/optimal ratio")
		fmt.Fprintf(w, "  %-7s %-8s %-12s %-12s %-8s\n", "levels", "nodes", "postorder", "optimal", "ratio")
		for _, r := range rows {
			check := "ok"
			if r.PostOrder != r.WantPO || r.Optimal != r.WantOpt {
				check = "MISMATCH with closed form"
			}
			fmt.Fprintf(w, "  %-7d %-8d %-12d %-12d %-8.3f %s\n", r.Levels, r.Nodes, r.PostOrder, r.Optimal, r.Ratio, check)
		}
		fmt.Fprintln(w)
	}
	if want("theorem2") {
		rows, err := experiments.RunTheorem2(20)
		if err != nil {
			return err
		}
		ok := 0
		fmt.Fprintln(w, "Theorem 2 — 2-Partition reduction: MinIO ≤ S/2 ⇔ instance solvable")
		for _, r := range rows {
			status := "consistent"
			if !r.Consistent {
				status = "INCONSISTENT"
			}
			if r.Consistent {
				ok++
			}
			fmt.Fprintf(w, "  items=%-20s solvable=%-5v minIO=%-5d bound=%-5d %s\n",
				fmt.Sprint(r.Items), r.Solvable, r.MinIO, r.Bound, status)
		}
		fmt.Fprintf(w, "  %d/%d instances consistent\n\n", ok, len(rows))
	}
	return nil
}
