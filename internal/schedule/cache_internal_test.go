package schedule

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// keyedBatch is a 64-job batch over two trees whose orders mix every
// identity keyMemo must tell apart: one slice shared by many jobs, two
// distinct slices with equal content, a sub-slice with the shared slice's
// head but a shorter length, an empty order and no order at all. It
// returns the batch and its number of distinct non-empty order slices.
func keyedBatch(t *testing.T) ([]Job, int) {
	t.Helper()
	var trees []*tree.Tree
	for seed := int64(1); seed <= 2; seed++ {
		tr, err := tree.Random(rand.New(rand.NewSource(seed)), tree.RandomOptions{Nodes: 40, MaxF: 20, MaxN: 10})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	shared := trees[0].TopDown()
	twin := append([]int(nil), shared...)
	orders := [][]int{shared, twin, shared[:len(shared)/2], {}, nil}
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{
			Instance:  "inst",
			Tree:      trees[i%2],
			Algorithm: "lru",
			Order:     orders[i%len(orders)],
			Memory:    int64(100 + i%3),
		}
	}
	return jobs, 3
}

// rowBackend answers every job with a row echoing its algorithm and
// budget, without running anything.
type rowBackend struct{}

func (rowBackend) Capabilities() Capabilities { return Capabilities{Name: "rows"} }

func (rowBackend) Run(_ context.Context, jobs []Job, opt BatchOptions) ([]Row, error) {
	rows := make([]Row, len(jobs))
	for i, j := range jobs {
		rows[i] = Row{Instance: j.Instance, Algorithm: j.Algorithm, Budget: j.Memory}
		if opt.OnRowIndexed != nil {
			opt.OnRowIndexed(i, rows[i])
		}
	}
	return rows, nil
}

func (b rowBackend) Stream(ctx context.Context, src JobSource, sink RowSink, opt StreamOptions) error {
	return StreamChunked(ctx, b.Run, src, sink, opt)
}

// keyLog is a MemStore that records the key of every Get and Put.
type keyLog struct {
	*MemStore
	gets, puts []string
}

func (s *keyLog) Get(key string) (Row, bool) {
	s.gets = append(s.gets, key)
	return s.MemStore.Get(key)
}

func (s *keyLog) Put(key string, row Row) error {
	s.puts = append(s.puts, key)
	return s.MemStore.Put(key, row)
}

// Every memoized key path — Cached.Run's lookups and stores,
// NewWarmEntries and Shard.warmEntries — must give CacheKey(j) for every
// job, however the batch's order slices alias one another.
func TestMemoizedKeysMatchCacheKey(t *testing.T) {
	jobs, _ := keyedBatch(t)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = CacheKey(j)
	}
	check := func(label string, got []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys for %d jobs", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: job %d keyed %s, want %s", label, i, got[i], want[i])
			}
		}
	}
	store := &keyLog{MemStore: NewMemStore()}
	rows, err := NewCached(rowBackend{}, store).Run(context.Background(), jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("Cached.Run lookups", store.gets)
	// Distinct jobs with equal keys (the twin orders) share one store
	// entry, so compare the stored keys as a set.
	stored := map[string]bool{}
	for _, k := range store.puts {
		stored[k] = true
	}
	for i, k := range want {
		if !stored[k] {
			t.Fatalf("Cached.Run did not store job %d under %s", i, k)
		}
	}
	keysOf := func(entries []WarmEntry) []string {
		out := make([]string, len(entries))
		for i, e := range entries {
			out[i] = e.Key
		}
		return out
	}
	check("NewWarmEntries", keysOf(NewWarmEntries(jobs, rows)))
	sh, err := NewShard(rowBackend{})
	if err != nil {
		t.Fatal(err)
	}
	check("Shard.warmEntries, no stream", keysOf(sh.warmEntries(jobs, rows)))
	// Within a stream the tree digests carry over from chunk to chunk.
	sh.acquireDigests()
	for pass := 0; pass < 2; pass++ {
		chunked := keysOf(sh.warmEntries(jobs[:32], rows[:32]))
		chunked = append(chunked, keysOf(sh.warmEntries(jobs[32:], rows[32:]))...)
		check("Shard.warmEntries, chunked stream", chunked)
	}
	if len(sh.digests) != 2 {
		t.Fatalf("shard memo holds %d tree digests during a stream, want 2", len(sh.digests))
	}
	sh.releaseDigests()
}

// One call hashes each distinct order slice once, however many jobs
// replay it, and each distinct tree once.
func TestKeyMemoHashesEachOrderOnce(t *testing.T) {
	jobs, distinct := keyedBatch(t)
	var km keyMemo
	for _, j := range jobs {
		km.key(j)
	}
	// The empty order is memoized too, under the zero head.
	if got := len(km.orders); got != distinct+1 {
		t.Fatalf("memo holds %d order digests, want %d slices + the empty order", got, distinct)
	}
	if got := len(km.trees); got != 2 {
		t.Fatalf("memo holds %d tree digests, want 2", got)
	}
}
