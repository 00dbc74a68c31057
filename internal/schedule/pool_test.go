package schedule_test

// The job-level worker pool is the loop of Local.Run. These tests pin its
// contract: every job runs once, results come back in job order, the
// first error wins and a cancelled context is reported.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/schedule"
	_ "repro/internal/traversal" // registers the MinMemory solvers
	"repro/internal/tree"
)

// poolJobs returns n MinMemory jobs over small random trees, cycling
// through three solvers so neighbouring jobs differ in cost.
func poolJobs(t *testing.T, n int) []schedule.Job {
	t.Helper()
	algs := []string{"postorder", "minmem", "liu"}
	var insts []schedule.Instance
	for seed := int64(0); len(insts)*len(algs) < n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 8 + int(seed%13), MaxF: 15, MaxN: 6, Attach: tree.AttachKind(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, schedule.Instance{Name: fmt.Sprintf("rand-%d", seed), Tree: tr})
	}
	return schedule.MinMemoryGrid(insts, algs)[:n]
}

// failAt returns a copy of jobs whose job i names no registered solver.
func failAt(jobs []schedule.Job, i int) []schedule.Job {
	bad := append([]schedule.Job(nil), jobs...)
	bad[i].Algorithm = "no-such-solver"
	return bad
}

func sameLabel(a schedule.Row, j schedule.Job) bool {
	return a.Instance == j.Instance && a.Algorithm == j.Algorithm && a.Budget == j.Memory
}

func TestForEachRunsAll(t *testing.T) {
	jobs := poolJobs(t, 100)
	var hits [100]atomic.Int32
	_, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{
		Workers:      8,
		OnRowIndexed: func(i int, _ schedule.Row) { hits[i].Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("job %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	for _, jobs := range [][]schedule.Job{nil, {}} {
		rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{Workers: 4})
		if err != nil || len(rows) != 0 {
			t.Fatalf("empty batch: %d rows, err %v", len(rows), err)
		}
	}
	// Workers ≤ 0 defaults to GOMAXPROCS; Workers > len(jobs) is clamped.
	jobs := poolJobs(t, 3)
	for _, workers := range []int{0, -1, 50} {
		rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != len(jobs) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(jobs))
		}
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	jobs := failAt(poolJobs(t, 300), 10)
	var ran atomic.Int32
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{
		Workers: 4,
		OnRow:   func(schedule.Row) { ran.Add(1) },
	})
	want := fmt.Sprintf("schedule: job %s/no-such-solver: ", jobs[10].Instance)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want the failing job's error %q…", err, want)
	}
	if rows != nil {
		t.Fatalf("failed batch returned %d rows", len(rows))
	}
	if ran.Load() == int32(len(jobs))-1 {
		t.Log("cancellation did not short-circuit (legal but unexpected on 1 core)")
	}
}

func TestForEachHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := schedule.Local{}.Run(ctx, poolJobs(t, 100), schedule.BatchOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	jobs := poolJobs(t, 50)
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(jobs) {
		t.Fatalf("%d rows, want %d", len(rows), len(jobs))
	}
	for i, row := range rows {
		if !sameLabel(row, jobs[i]) {
			t.Fatalf("rows[%d] = %s/%s budget %d, want job %s/%s budget %d",
				i, row.Instance, row.Algorithm, row.Budget, jobs[i].Instance, jobs[i].Algorithm, jobs[i].Memory)
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := schedule.Local{}.Run(context.Background(), failAt(poolJobs(t, 10), 3), schedule.BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("error swallowed")
	}
}

// Property: for any batch size and worker count, Local.Run's rows match
// the rows of running the same jobs one at a time (timing aside).
func TestQuickMapMatchesSequential(t *testing.T) {
	jobs := poolJobs(t, 63)
	ref, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(nRaw, wRaw uint8) bool {
		n := int(nRaw % 64)
		w := int(wRaw%8) + 1
		rows, err := schedule.Local{}.Run(context.Background(), jobs[:n], schedule.BatchOptions{Workers: w})
		if err != nil || len(rows) != n {
			return false
		}
		for i, row := range rows {
			want := ref[i]
			row.Seconds, want.Seconds = 0, 0
			if row != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
