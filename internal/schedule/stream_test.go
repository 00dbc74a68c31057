package schedule_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// drain pulls every job out of a source.
func drain(t *testing.T, src schedule.JobSource) []schedule.Job {
	t.Helper()
	var jobs []schedule.Job
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

func sameJobs(t *testing.T, got, want []schedule.Job, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs vs %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Instance != w.Instance || g.Tree != w.Tree || g.Algorithm != w.Algorithm ||
			g.Memory != w.Memory || g.Window != w.Window || len(g.Order) != len(w.Order) {
			t.Fatalf("%s: job %d differs: %+v vs %+v", label, i, g, w)
		}
		for k := range w.Order {
			if g.Order[k] != w.Order[k] {
				t.Fatalf("%s: job %d order differs at %d", label, i, k)
			}
		}
	}
}

// Streaming a grid through Local.Stream must produce, in sink order, the
// bit-identical rows of a materialized Run (Seconds aside) — the
// order-preserving merge across concurrently evaluated chunks.
func TestLocalStreamMatchesRun(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []schedule.StreamOptions{
		{},
		{ChunkSize: 1, InFlight: 8},
		{ChunkSize: 3, InFlight: 2},
		{ChunkSize: len(jobs) + 10, InFlight: 1},
	} {
		var got schedule.Collector
		if err := (schedule.Local{}).Stream(context.Background(), schedule.SliceSource(jobs), &got, opt); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		sameRowsNoTime(t, want, got.Rows(), fmt.Sprintf("stream %+v vs run", opt))
	}
}

// The streaming path must hold at most ChunkSize × InFlight jobs between
// source and sink: a stream much longer than that bound completes without
// the engine ever materializing it.
func TestStreamBoundedResidency(t *testing.T) {
	tr := randomTree(t, 7, 25)
	const total, chunkSize, inFlight = 240, 8, 3
	outstanding, peak := 0, 0
	var mu sync.Mutex
	produced := 0
	src := schedule.SourceFunc(func() (schedule.Job, bool, error) {
		if produced >= total {
			return schedule.Job{}, false, nil
		}
		produced++
		mu.Lock()
		outstanding++
		if outstanding > peak {
			peak = outstanding
		}
		mu.Unlock()
		return schedule.Job{Instance: "s", Tree: tr, Algorithm: "postorder"}, true, nil
	})
	rows := 0
	sink := schedule.SinkFunc(func(schedule.Row) error {
		mu.Lock()
		outstanding--
		mu.Unlock()
		rows++
		return nil
	})
	err := schedule.Local{}.Stream(context.Background(), src, sink,
		schedule.StreamOptions{ChunkSize: chunkSize, InFlight: inFlight, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows != total {
		t.Fatalf("sank %d rows, want %d", rows, total)
	}
	if peak > chunkSize*inFlight {
		t.Fatalf("peak resident jobs %d exceeds ChunkSize×InFlight = %d", peak, chunkSize*inFlight)
	}
}

// Source and sink errors abort the stream and surface to the caller.
func TestStreamPropagatesErrors(t *testing.T) {
	tr := randomTree(t, 8, 20)
	boom := errors.New("boom")
	n := 0
	src := schedule.SourceFunc(func() (schedule.Job, bool, error) {
		if n >= 5 {
			return schedule.Job{}, false, boom
		}
		n++
		return schedule.Job{Instance: "s", Tree: tr, Algorithm: "postorder"}, true, nil
	})
	var sank schedule.Collector
	if err := (schedule.Local{}).Stream(context.Background(), src, &sank,
		schedule.StreamOptions{ChunkSize: 2}); !errors.Is(err, boom) {
		t.Fatalf("source error not surfaced: %v", err)
	}

	sinkErr := errors.New("sink full")
	if err := (schedule.Local{}).Stream(context.Background(),
		schedule.SliceSource(schedule.MinMemoryGrid(batchInstances(t), []string{"postorder"})),
		schedule.SinkFunc(func(schedule.Row) error { return sinkErr }),
		schedule.StreamOptions{ChunkSize: 2}); !errors.Is(err, sinkErr) {
		t.Fatalf("sink error not surfaced: %v", err)
	}

	// A failing job fails the stream, like a failing batch.
	bad := []schedule.Job{{Instance: "x", Tree: tr, Algorithm: "no-such-solver"}}
	if err := (schedule.Local{}).Stream(context.Background(), schedule.SliceSource(bad), &sank,
		schedule.StreamOptions{}); err == nil {
		t.Fatal("unknown algorithm streamed successfully")
	}
}

// RunViaStream is the Run shim over Stream: rows in job order, callbacks
// fired once per row.
func TestRunViaStream(t *testing.T) {
	jobs := gridJobs(t)
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	indexed := map[int]bool{}
	got, err := schedule.RunViaStream(context.Background(), schedule.Local{}, jobs, schedule.BatchOptions{
		OnRow: func(schedule.Row) { streamed++ },
		OnRowIndexed: func(i int, r schedule.Row) {
			if indexed[i] {
				t.Fatalf("row %d announced twice", i)
			}
			indexed[i] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, got, "RunViaStream vs Run")
	if streamed != len(jobs) || len(indexed) != len(jobs) {
		t.Fatalf("callbacks saw %d/%d rows, want %d", streamed, len(indexed), len(jobs))
	}
}

// With no MinMemory algorithms, GridSource yields the policy half alone:
// exactly the jobs of the eager reference expansion, in the same order.
func TestLazyGridSources(t *testing.T) {
	insts := batchInstances(t)
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return []int64{tr.MaxMemReq(), (tr.MaxMemReq() + out.Memory) / 2}, nil
	}
	eager, err := refMinIOGrid(insts, "minmem", schedule.EvictionPolicyNames(), memories)
	if err != nil {
		t.Fatal(err)
	}
	sameJobs(t, policyJobs(t, insts, "minmem", schedule.EvictionPolicyNames(), memories), eager, "GridSource policy half")
}

// A directory of .tree files streams as (file × algorithm) jobs in sorted
// file order; a reader of concatenated .tree documents streams in document
// order. Both must evaluate to the rows of the equivalent in-memory grid.
func TestTreeSources(t *testing.T) {
	dir := t.TempDir()
	var insts []schedule.Instance
	var concat strings.Builder
	for i := 0; i < 3; i++ {
		tr := randomTree(t, int64(20+i), 20+5*i)
		name := fmt.Sprintf("t%d", i)
		insts = append(insts, schedule.Instance{Name: name, Tree: tr})
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".tree"), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		concat.WriteString(sb.String())
	}
	os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("not a tree"), 0o644)
	algs := []string{"postorder", "minmem"}

	want, err := schedule.Local{}.Run(context.Background(),
		schedule.MinMemoryGrid(insts, algs), schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dirSrc, err := schedule.TreeDirSource(dir, algs)
	if err != nil {
		t.Fatal(err)
	}
	var dirRows schedule.Collector
	if err := (schedule.Local{}).Stream(context.Background(), dirSrc, &dirRows,
		schedule.StreamOptions{ChunkSize: 2}); err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, dirRows.Rows(), "TreeDirSource vs in-memory grid")

	streamSrc := schedule.TreeStreamSource(strings.NewReader(concat.String()), "stdin", algs)
	var streamRows schedule.Collector
	if err := (schedule.Local{}).Stream(context.Background(), streamSrc, &streamRows,
		schedule.StreamOptions{ChunkSize: 2}); err != nil {
		t.Fatal(err)
	}
	got := streamRows.Rows()
	if len(got) != len(want) {
		t.Fatalf("tree stream produced %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if b.Instance != fmt.Sprintf("stdin-%d", i/len(algs)) {
			t.Fatalf("row %d instance %q, want stdin-%d", i, b.Instance, i/len(algs))
		}
		a.Instance, b.Instance = "", ""
		a.Seconds, b.Seconds = 0, 0
		if a != b {
			t.Fatalf("row %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}

	if _, err := schedule.TreeDirSource(filepath.Join(dir, "absent"), algs); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// CSV and JSONL sinks must emit exactly the wire format — pinned against
// golden literals, since WriteRowsCSV/WriteRowsJSON are now thin wrappers
// over the sinks and can no longer serve as an independent expectation.
func TestRowSinksMatchWriters(t *testing.T) {
	rows := []schedule.Row{
		{Instance: "a", Algorithm: "minmem", Kind: "minmemory", Memory: 42, Seconds: 0.25},
		{Instance: "b", Algorithm: "lsnf", Kind: "minio", Budget: 10, Memory: 9, IO: 7, Writes: 2, Seconds: 0.5},
	}
	const goldenCSV = "instance,algorithm,kind,budget,memory,io,writes,seconds\n" +
		"a,minmem,minmemory,0,42,0,0,0.25\n" +
		"b,lsnf,minio,10,9,7,2,0.5\n"
	const goldenJSONL = `{"instance":"a","algorithm":"minmem","kind":"minmemory","budget":0,"memory":42,"io":0,"writes":0,"seconds":0.25}` + "\n" +
		`{"instance":"b","algorithm":"lsnf","kind":"minio","budget":10,"memory":9,"io":7,"writes":2,"seconds":0.5}` + "\n"

	var gotCSV, gotJSONL strings.Builder
	csvSink := schedule.NewCSVSink(&gotCSV)
	for _, r := range rows {
		if err := csvSink.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := csvSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != goldenCSV {
		t.Fatalf("CSV sink format drifted:\n%q\nwant\n%q", gotCSV.String(), goldenCSV)
	}
	jsonSink := schedule.NewJSONLSink(&gotJSONL)
	for _, r := range rows {
		if err := jsonSink.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if gotJSONL.String() != goldenJSONL {
		t.Fatalf("JSONL sink format drifted:\n%q\nwant\n%q", gotJSONL.String(), goldenJSONL)
	}

	// The slice writers are those same sinks, byte for byte.
	var wCSV, wJSONL strings.Builder
	if err := schedule.WriteRowsCSV(&wCSV, rows); err != nil {
		t.Fatal(err)
	}
	if err := schedule.WriteRowsJSON(&wJSONL, rows); err != nil {
		t.Fatal(err)
	}
	if wCSV.String() != goldenCSV || wJSONL.String() != goldenJSONL {
		t.Fatal("WriteRows* diverged from the sink format")
	}

	// An empty CSV stream still gets its header on Flush.
	var empty strings.Builder
	if err := schedule.NewCSVSink(&empty).Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(empty.String(), "instance,algorithm,") {
		t.Fatalf("empty CSV sink wrote %q", empty.String())
	}

	// MultiSink fans out in order.
	var c schedule.Collector
	multi := schedule.MultiSink(&c, schedule.SinkFunc(func(schedule.Row) error { return nil }))
	for _, r := range rows {
		if err := multi.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Rows()) != len(rows) {
		t.Fatalf("MultiSink delivered %d rows, want %d", len(c.Rows()), len(rows))
	}
}

// Cached.Stream: a warm stream executes zero algorithm runs and its rows
// are the bit-identical replay; a cold stream equals a Local stream.
func TestCachedStream(t *testing.T) {
	jobs := gridJobs(t)
	counting := &countingBackend{inner: schedule.Local{}}
	cached := schedule.NewCached(counting, nil)

	var cold schedule.Collector
	if err := cached.Stream(context.Background(), schedule.SliceSource(jobs), &cold,
		schedule.StreamOptions{ChunkSize: 5}); err != nil {
		t.Fatal(err)
	}
	want, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRowsNoTime(t, want, cold.Rows(), "cold cached stream vs local")
	if got := counting.jobs.Load(); got != int64(len(jobs)) {
		t.Fatalf("cold stream reached inner with %d jobs, want %d", got, len(jobs))
	}

	var warm schedule.Collector
	if err := cached.Stream(context.Background(), schedule.SliceSource(jobs), &warm,
		schedule.StreamOptions{ChunkSize: 5}); err != nil {
		t.Fatal(err)
	}
	for i, r := range warm.Rows() {
		if r != cold.Rows()[i] {
			t.Fatalf("warm stream row %d not bit-identical: %+v vs %+v", i, r, cold.Rows()[i])
		}
	}
	if got := counting.jobs.Load(); got != int64(len(jobs)) {
		t.Fatalf("warm stream executed %d extra algorithm runs", got-int64(len(jobs)))
	}
}

// Cancelling the context must surface as a stream error, never as a clean
// return with a truncated prefix of rows.
func TestStreamReportsCancellation(t *testing.T) {
	tr := randomTree(t, 9, 20)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := schedule.SourceFunc(func() (schedule.Job, bool, error) {
		if n == 6 {
			cancel() // caller gives up between chunks
		}
		n++
		return schedule.Job{Instance: "s", Tree: tr, Algorithm: "postorder"}, true, nil
	})
	var sank schedule.Collector
	err := schedule.Local{}.Stream(ctx, src, &sank, schedule.StreamOptions{ChunkSize: 2, InFlight: 1})
	if err == nil {
		t.Fatalf("cancelled stream returned nil after %d rows", len(sank.Rows()))
	}
}

// An evaluation error must surface promptly even when the source is blocked
// waiting for input (a pipe with no data yet): the error returns, the
// blocked reader is abandoned to wind down on its own.
func TestStreamErrorWhileSourceBlocked(t *testing.T) {
	tr := randomTree(t, 10, 20)
	release := make(chan struct{})
	n := 0
	src := schedule.SourceFunc(func() (schedule.Job, bool, error) {
		if n >= 2 {
			<-release // simulates stdin with nothing more to read yet
			return schedule.Job{}, false, nil
		}
		n++
		// An unknown algorithm fails the first chunk's evaluation.
		return schedule.Job{Instance: "s", Tree: tr, Algorithm: "no-such-solver"}, true, nil
	})
	defer close(release)
	done := make(chan error, 1)
	var sank schedule.Collector
	go func() {
		done <- schedule.Local{}.Stream(context.Background(), src, &sank,
			schedule.StreamOptions{ChunkSize: 2, InFlight: 2})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no-such-solver") {
			t.Fatalf("blocked-source stream: got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream error held hostage by a blocked source")
	}
}

// GridSource over an instance stream must equal, per instance, the
// MinMemory grid followed by the MinIO grid — the interleaving that lets
// streaming corpora overlap tree construction with evaluation.
func TestGridSource(t *testing.T) {
	insts := batchInstances(t)
	algs := []string{"postorder", "minmem"}
	policies := schedule.EvictionPolicyNames()
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return []int64{tr.MaxMemReq(), (tr.MaxMemReq() + out.Memory) / 2}, nil
	}

	var want []schedule.Job
	for _, inst := range insts {
		one := []schedule.Instance{inst}
		want = append(want, schedule.MinMemoryGrid(one, algs)...)
		eager, err := refMinIOGrid(one, "minmem", policies, memories)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, eager...)
	}

	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), algs, "minmem", policies, memories)
	if err != nil {
		t.Fatal(err)
	}
	sameJobs(t, drain(t, src), want, "GridSource")

	// No policies → pure MinMemory grid, orderBy never run.
	src, err = schedule.GridSource(schedule.InstanceSliceSource(insts), algs, "minmem", nil, memories)
	if err != nil {
		t.Fatal(err)
	}
	sameJobs(t, drain(t, src), schedule.MinMemoryGrid(insts, algs), "GridSource no policies")

	if _, err := schedule.GridSource(schedule.InstanceSliceSource(insts), algs, "nope", policies, memories); err == nil {
		t.Fatal("unknown orderBy accepted")
	}
	if _, err := schedule.GridSource(schedule.InstanceSliceSource(insts), algs, "lsnf", policies, memories); err == nil {
		t.Fatal("MinIO orderBy accepted")
	}
}
