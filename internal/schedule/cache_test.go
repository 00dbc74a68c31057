package schedule_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// countingBackend wraps an inner backend and counts the jobs that actually
// reach it — the probe for "a warm rerun executes zero algorithm runs".
type countingBackend struct {
	inner schedule.Backend
	jobs  atomic.Int64
}

func (b *countingBackend) Capabilities() schedule.Capabilities {
	return b.inner.Capabilities()
}

func (b *countingBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	b.jobs.Add(int64(len(jobs)))
	return b.inner.Run(ctx, jobs, opt)
}

func (b *countingBackend) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, b.Run, src, sink, opt)
}

func gridJobs(t *testing.T) []schedule.Job {
	t.Helper()
	insts := batchInstances(t)
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "minmem"})
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return []int64{tr.MaxMemReq()}, nil
	}
	return append(jobs, policyJobs(t, insts, "minmem", schedule.EvictionPolicyNames(), memories)...)
}

func sameRowsNoTime(t *testing.T, a, b []schedule.Row, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Seconds, y.Seconds = 0, 0
		if x != y {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// A cold cached grid must equal the uncached grid row for row (Seconds
// aside); a warm rerun must be answered entirely from the store, executing
// zero algorithm runs.
func TestCachedColdWarm(t *testing.T) {
	jobs := gridJobs(t)
	uncached, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	counting := &countingBackend{inner: schedule.Local{}}
	cached := schedule.NewCached(counting, nil)
	if caps := cached.Capabilities(); !caps.Cached || caps.Name != "cached(local)" {
		t.Fatalf("bad capabilities %+v", caps)
	}
	streamed := 0
	cold, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{
		OnRow: func(schedule.Row) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, uncached, cold, "cold vs uncached")
	if streamed != len(jobs) {
		t.Fatalf("cold run streamed %d rows, want %d", streamed, len(jobs))
	}
	if hits, misses := cached.Counters(); hits != 0 || misses != int64(len(jobs)) {
		t.Fatalf("cold counters hits=%d misses=%d, want 0/%d", hits, misses, len(jobs))
	}
	if got := counting.jobs.Load(); got != int64(len(jobs)) {
		t.Fatalf("cold run reached inner backend with %d jobs, want %d", got, len(jobs))
	}

	streamed = 0
	indexed := 0
	warm, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{
		OnRow: func(schedule.Row) { streamed++ },
		OnRowIndexed: func(i int, r schedule.Row) {
			if r != cold[i] {
				t.Fatalf("indexed row %d is not the bit-identical replay: %+v vs %+v", i, r, cold[i])
			}
			indexed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm replay is bit-identical, Seconds included: the stored row comes
	// back exactly as computed.
	if len(warm) != len(cold) {
		t.Fatalf("warm has %d rows, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("warm row %d not bit-identical: %+v vs %+v", i, warm[i], cold[i])
		}
	}
	if streamed != len(jobs) || indexed != len(jobs) {
		t.Fatalf("warm run streamed %d/%d rows, want %d", streamed, indexed, len(jobs))
	}
	if hits, misses := cached.Counters(); hits != int64(len(jobs)) || misses != int64(len(jobs)) {
		t.Fatalf("warm counters hits=%d misses=%d, want %d/%d", hits, misses, len(jobs), len(jobs))
	}
	if got := counting.jobs.Load(); got != int64(len(jobs)) {
		t.Fatalf("warm run executed %d extra algorithm runs", got-int64(len(jobs)))
	}
}

// A partially warm store serves the overlap and runs only the new jobs.
func TestCachedPartialOverlap(t *testing.T) {
	jobs := gridJobs(t)
	half := jobs[:len(jobs)/2]
	counting := &countingBackend{inner: schedule.Local{}}
	cached := schedule.NewCached(counting, nil)
	if _, err := cached.Run(context.Background(), half, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	want := int64(len(jobs)) // half cold, then only the other half
	if got := counting.jobs.Load(); got != want {
		t.Fatalf("inner backend saw %d jobs, want %d", got, want)
	}
	hits, misses := cached.Counters()
	if hits != int64(len(half)) || misses != want {
		t.Fatalf("counters hits=%d misses=%d, want %d/%d", hits, misses, len(half), want)
	}
}

// The cache key must separate every dimension an algorithm can observe:
// tree content, algorithm name, budget, window and replay order.
func TestCacheKeyDimensions(t *testing.T) {
	tr := randomTree(t, 1, 30)
	other := randomTree(t, 2, 30)
	base := schedule.Job{Tree: tr, Algorithm: "lsnf", Order: tr.TopDown(), Memory: 100, Window: 5}
	reordered := base
	reordered.Order = append([]int(nil), base.Order...)
	reordered.Order[len(reordered.Order)-1], reordered.Order[len(reordered.Order)-2] =
		reordered.Order[len(reordered.Order)-2], reordered.Order[len(reordered.Order)-1]
	variants := map[string]schedule.Job{
		"tree":     {Tree: other, Algorithm: "lsnf", Order: base.Order, Memory: 100, Window: 5},
		"algo":     {Tree: tr, Algorithm: "best-fit", Order: base.Order, Memory: 100, Window: 5},
		"memory":   {Tree: tr, Algorithm: "lsnf", Order: base.Order, Memory: 101, Window: 5},
		"window":   {Tree: tr, Algorithm: "lsnf", Order: base.Order, Memory: 100, Window: 6},
		"order":    reordered,
		"no-order": {Tree: tr, Algorithm: "lsnf", Memory: 100, Window: 5},
	}
	baseKey := schedule.CacheKey(base)
	if baseKey != schedule.CacheKey(base) {
		t.Fatal("cache key not deterministic")
	}
	for name, v := range variants {
		if schedule.CacheKey(v) == baseKey {
			t.Fatalf("changing %s does not change the cache key", name)
		}
	}
}

// The instance name is reporting identity, not algorithm input: a job whose
// tree content is already cached under another instance name hits, and the
// replayed row carries this job's name.
func TestCachedRestampsInstance(t *testing.T) {
	tr := randomTree(t, 3, 40)
	counting := &countingBackend{inner: schedule.Local{}}
	cached := schedule.NewCached(counting, nil)
	first, err := cached.Run(context.Background(),
		[]schedule.Job{{Instance: "alpha", Tree: tr, Algorithm: "minmem"}}, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []schedule.Row
	second, err := cached.Run(context.Background(),
		[]schedule.Job{{Instance: "beta", Tree: tr, Algorithm: "minmem"}}, schedule.BatchOptions{
			OnRow: func(r schedule.Row) { streamed = append(streamed, r) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := counting.jobs.Load(); got != 1 {
		t.Fatalf("same tree under a new name re-ran (%d algorithm runs, want 1)", got)
	}
	if second[0].Instance != "beta" || len(streamed) != 1 || streamed[0].Instance != "beta" {
		t.Fatalf("hit row not restamped: returned %+v, streamed %+v", second[0], streamed)
	}
	want := first[0]
	want.Instance = "beta"
	if second[0] != want {
		t.Fatalf("restamped row differs beyond the name: %+v vs %+v", second[0], want)
	}
}

// A batch that fails half-way still banks its completed rows: the rerun of
// the good jobs is fully warm.
func TestCachedBanksRowsOnFailure(t *testing.T) {
	insts := batchInstances(t)
	good := schedule.MinMemoryGrid(insts, []string{"postorder", "minmem"})
	bad := append(append([]schedule.Job(nil), good...),
		schedule.Job{Instance: "x", Tree: insts[0].Tree, Algorithm: "no-such-solver"})
	store := schedule.NewMemStore()
	cached := schedule.NewCached(schedule.Local{}, store)
	if _, err := cached.Run(context.Background(), bad, schedule.BatchOptions{Workers: 1}); err == nil {
		t.Fatal("failing batch reported success")
	}
	counting := &countingBackend{inner: schedule.Local{}}
	rerun := schedule.NewCached(counting, store)
	if _, err := rerun.Run(context.Background(), good, schedule.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := counting.jobs.Load(); got != 0 {
		t.Fatalf("rerun after partial failure re-ran %d jobs, want 0 (rows were banked)", got)
	}
}

// The cached backend stays correct over a store too small for the grid:
// every row is still bit-identical, evictions just turn into extra misses
// on the rerun.
func TestCachedOverBoundedStore(t *testing.T) {
	jobs := gridJobs(t)
	store, err := schedule.OpenPagedStoreWith(filepath.Join(t.TempDir(), "rows.paged"), schedule.StoreOptions{MaxEntries: len(jobs) / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cached := schedule.NewCached(schedule.Local{}, store)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, cold, "cold over bounded store")
	warm, err := cached.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, warm, "warm over bounded store")
	if store.Evictions() == 0 {
		t.Fatal("undersized store never evicted")
	}
	hits, misses := cached.Counters()
	if hits == 0 || misses <= int64(len(jobs)) {
		t.Fatalf("counters hits=%d misses=%d: rerun of an undersized store should mix hits and extra misses", hits, misses)
	}
}

// Keys and tree digests are persisted by paged stores and exchanged by
// gossip and /v1/warm peers, so their bytes are pinned literally: an
// ordered job, an order-less job ("o-") and an empty-order job on a small
// tree, and an ordered job on a 1,000-node tree whose digest and order
// text span many hash writes.
func TestCacheKeyGolden(t *testing.T) {
	small := tree.MustNew([]int{-1, 0, 0, 1, 1}, []int64{0, 3, 4, 2, 5}, []int64{1, 2, -1, 4, 3})
	const p = 1000
	parent := make([]int, p)
	f := make([]int64, p)
	n := make([]int64, p)
	order := make([]int, p)
	for i := range parent {
		parent[i] = (i - 1) / 3
		f[i] = int64(i * 7 % 101)
		n[i] = int64(i*13%97) - 40
		order[i] = p - 1 - i
	}
	parent[0] = tree.NoParent
	big := tree.MustNew(parent, f, n)

	const smallDigest = "cab72d5979fb93cc5d34d2d89c331358b82d72b2d5cc874b7a6db8a11aa2ecef"
	const bigDigest = "741352b19188abc29406bc00966d9308ca83e4879bf896b637bc16dcfee39f82"
	if got := small.Digest().String(); got != smallDigest {
		t.Errorf("small tree digest %s, want %s", got, smallDigest)
	}
	if got := big.Digest().String(); got != bigDigest {
		t.Errorf("1,000-node tree digest %s, want %s", got, bigDigest)
	}
	for _, c := range []struct {
		name string
		job  schedule.Job
		want string
	}{
		{"ordered", schedule.Job{Tree: small, Algorithm: "lru", Memory: 17, Order: []int{0, 1, 3, 4, 2}},
			smallDigest + "/lru/m17/w0/o6857fef7817232af05ece04fd7b67e03fefbce2469275bcdd840700ea91ddd03"},
		{"order-less", schedule.Job{Tree: small, Algorithm: "minmem"},
			smallDigest + "/minmem/m0/w0/o-"},
		{"empty order", schedule.Job{Tree: small, Algorithm: "best-k", Memory: 12, Window: 3, Order: []int{}},
			smallDigest + "/best-k/m12/w3/oe3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"long order", schedule.Job{Tree: big, Algorithm: "fif", Memory: 1 << 40, Window: -1, Order: order},
			bigDigest + "/fif/m1099511627776/w-1/of9a1b0e4eccfa30b5e547d18f82074c6b78d7b4f6706079b356076b634edd1c0"},
	} {
		if got := schedule.CacheKey(c.job); got != c.want {
			t.Errorf("%s job: key\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
