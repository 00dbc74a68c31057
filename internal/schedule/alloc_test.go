package schedule

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/tree"
)

// skipIfRace skips an allocation pin under the race detector, whose
// instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
}

// allocTree builds a deterministic mid-size tree for the allocation pins.
func allocTree(tb testing.TB, nodes int) *tree.Tree {
	tb.Helper()
	t, err := tree.Random(rand.New(rand.NewSource(2011)), tree.RandomOptions{Nodes: nodes, MaxF: 1000, MaxN: 500})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// A steady-state peak simulation costs zero allocations: the position
// buffer comes from the pooled arena and nothing else outlives the call.
func TestSimulatePeakAllocFree(t *testing.T) {
	skipIfRace(t)
	tr := allocTree(t, 2000)
	order := tr.TopDown()
	if _, err := Simulate(tr, order, Config{}); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Simulate(tr, order, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("peak simulation costs %.1f allocs/op, want 0", allocs)
	}
}

// A steady-state bottom-up simulation is likewise allocation free.
func TestSimulateBottomUpAllocFree(t *testing.T) {
	skipIfRace(t)
	tr := allocTree(t, 2000)
	order := tree.ReverseOrder(tr.TopDown())
	if _, err := Simulate(tr, order, Config{Direction: BottomUp}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Simulate(tr, order, Config{Direction: BottomUp}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bottom-up simulation costs %.1f allocs/op, want 0", allocs)
	}
}

// An evicting replay's only steady-state allocation is sealing the Writes
// log into its exact-size result slice: snapshots, victim lists and the
// resident set all come from the pooled arena.
func TestSimulateEvictAllocs(t *testing.T) {
	skipIfRace(t)
	tr := allocTree(t, 2000)
	order := tr.TopDown()
	ev, err := BestK(BestKWindow)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Memory: tr.MaxMemReq(), Evict: ev}
	warm, err := Simulate(tr, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Writes) == 0 {
		t.Fatal("budget did not force any evictions; the pin would be vacuous")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Simulate(tr, order, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("evicting simulation costs %.1f allocs/op, want ≤ 1 (the Writes seal)", allocs)
	}
}

// The Best-K victim selection itself is allocation free when appending into
// a recycled buffer, like the hillvalley kernel's scratch.
func TestSelectVictimsAppendAllocFree(t *testing.T) {
	skipIfRace(t)
	tr := allocTree(t, 2000)
	ev, err := BestK(BestKWindow)
	if err != nil {
		t.Fatal(err)
	}
	gp := ev.(greedyPolicy)
	// Candidate set: every positive-size non-root file, latest first by
	// construction order; the exact ordering is irrelevant to the pin.
	var base []int
	for i := 0; i < tr.Len() && len(base) < 64; i++ {
		if i != tr.Root() && tr.F(i) > 0 {
			base = append(base, i)
		}
	}
	var need int64
	for _, v := range base[:len(base)/2] {
		need += tr.F(v)
	}
	s := make([]int, len(base))
	dst := make([]int, 0, len(base))
	run := func() {
		copy(s, base)
		victims, err := gp.selectVictimsAppend(tr, s[:len(base)], need, dst[:0])
		if err != nil || len(victims) == 0 {
			t.Fatalf("selection failed: %v (%d victims)", err, len(victims))
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("victim selection costs %.1f allocs/op, want 0", allocs)
	}
}

// The pooled arena must not leak state between calls: an invalid order
// still yields the canonical validation errors after valid runs warmed the
// pool, and results are bit-identical run to run.
func TestSimulateScratchIsolation(t *testing.T) {
	tr := allocTree(t, 200)
	order := tr.TopDown()
	ev, err := BestK(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Memory: tr.MaxMemReq(), Evict: ev, Profile: true}
	first, err := Simulate(tr, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the first result's slices must not bleed into a rerun.
	for i := range first.Writes {
		first.Writes[i].Node = -1
	}
	for i := range first.Profile {
		first.Profile[i].Hill = -1
	}
	second, err := Simulate(tr, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Writes) == 0 || second.Writes[0].Node == -1 {
		t.Fatal("rerun shares Writes memory with the previous result")
	}
	if len(second.Profile) == 0 || second.Profile[0].Hill == -1 {
		t.Fatal("rerun shares Profile memory with the previous result")
	}
	bad := append([]int{}, order...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if _, err := Simulate(tr, bad, Config{}); err == nil {
		t.Fatal("invalid order accepted after warm runs")
	}
	dup := append([]int{}, order...)
	dup[1] = dup[0]
	if _, err := Simulate(tr, dup, Config{}); err == nil {
		t.Fatal("duplicate order accepted after warm runs")
	}
	if _, err := Simulate(tr, order[:len(order)-1], Config{}); err == nil {
		t.Fatal("short order accepted after warm runs")
	}
}

// A steady-state paged-store hit costs zero allocations: the key and value
// buffers are reused under the store's mutex and the row's strings are
// interned. The key is a real cache key, longer than the compiler's
// on-stack buffer for a []byte(string) conversion.
func TestPagedStoreGetAllocFree(t *testing.T) {
	skipIfRace(t)
	s, err := OpenPagedStore(filepath.Join(t.TempDir(), "rows.paged"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := allocTree(t, 200)
	key := CacheKey(Job{Instance: "alloc", Tree: tr, Algorithm: "minmem", Memory: 1 << 20, Order: tr.TopDown()})
	if len(key) < 100 {
		t.Fatalf("cache key %q is shorter than a real one", key)
	}
	if err := s.Put(key, Row{Instance: "alloc", Algorithm: "minmem", Kind: "minmem", Memory: 42}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok { // warm the buffers and the intern table
		t.Fatal("stored key missing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(key); !ok {
			t.Fatal("stored key missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("paged store hit costs %.1f allocs/op, want 0", allocs)
	}
}
