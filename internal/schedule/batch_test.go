package schedule_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tree"
)

func batchInstances(t *testing.T) []schedule.Instance {
	t.Helper()
	var out []schedule.Instance
	for seed := int64(0); seed < 6; seed++ {
		out = append(out, schedule.Instance{
			Name: "rand-" + string(rune('a'+seed)),
			Tree: randomTree(t, 40+seed, 6+int(seed)*3),
		})
	}
	return out
}

// A parallel batch through Local.Run must produce, row for row, the same
// values as running every job sequentially (timing aside), at any worker
// count — including more workers than jobs, which the pool clamps to
// len(jobs).
func TestRunBatchMatchesSequential(t *testing.T) {
	insts := batchInstances(t)
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "minmem", "liu"})
	if len(jobs) != len(insts)*3 {
		t.Fatalf("grid has %d jobs, want %d", len(jobs), len(insts)*3)
	}
	var seq []schedule.Row
	for _, workers := range []int{1, 3, 8, 64} {
		streamed := 0
		rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{
			Workers: workers,
			OnRow:   func(schedule.Row) { streamed++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if streamed != len(jobs) {
			t.Fatalf("workers=%d: OnRow saw %d rows, want %d", workers, streamed, len(jobs))
		}
		if seq == nil {
			seq = rows
			continue
		}
		sameRowsNoTime(t, seq, rows, fmt.Sprintf("workers=%d vs 1", workers))
	}
}

// A batch with one failing job returns that job's error, whichever
// worker runs it.
func TestRunBatchPropagatesErrors(t *testing.T) {
	jobs := schedule.MinMemoryGrid(batchInstances(t), []string{"postorder", "minmem"})
	bad := append([]schedule.Job(nil), jobs...)
	bad[5].Algorithm = "no-such-solver"
	_, err := schedule.Local{}.Run(context.Background(), bad, schedule.BatchOptions{Workers: 4})
	want := fmt.Sprintf("schedule: job %s/no-such-solver: ", bad[5].Instance)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want the failing job's error %q…", err, want)
	}
}

// The policy half of GridSource replays the orderBy traversal under every
// policy; at the floor budget each row must match a direct simulator run.
func TestGridSourcePolicyRows(t *testing.T) {
	insts := batchInstances(t)
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		if out.Memory < tr.MaxMemReq() {
			t.Fatalf("memories got outcome %d below floor %d", out.Memory, tr.MaxMemReq())
		}
		return []int64{tr.MaxMemReq()}, nil
	}
	policies := schedule.EvictionPolicyNames()
	jobs := policyJobs(t, insts, "minmem", policies, memories)
	if len(jobs) != len(insts)*len(policies) {
		t.Fatalf("grid has %d jobs, want %d", len(jobs), len(insts)*len(policies))
	}
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		job := jobs[i]
		ev, err := schedule.EvictorByName(row.Algorithm, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := schedule.Simulate(job.Tree, job.Order, schedule.Config{Memory: job.Memory, Evict: ev})
		if err != nil {
			t.Fatal(err)
		}
		if row.IO != sim.IO || row.Writes != len(sim.Writes) {
			t.Fatalf("row %d (%s/%s): IO %d/%d writes != direct %d/%d",
				i, row.Instance, row.Algorithm, row.IO, row.Writes, sim.IO, len(sim.Writes))
		}
		if row.Kind != "minio" || row.Budget != job.Memory {
			t.Fatalf("row %d mislabelled: %+v", i, row)
		}
	}
}

// GridSource validates orderBy at construction; an orderBy that proves a
// value but exhibits no traversal fails when the stream reaches its replay.
func TestGridSourceRejects(t *testing.T) {
	insts := schedule.InstanceSliceSource(batchInstances(t)[:1])
	memories := func(tr *tree.Tree, _ schedule.Outcome) ([]int64, error) { return []int64{tr.TotalF()}, nil }
	if _, err := schedule.GridSource(insts, nil, "nope", []string{"lsnf"}, memories); err == nil {
		t.Fatal("unknown orderBy accepted")
	}
	if _, err := schedule.GridSource(insts, nil, "lsnf", []string{"lsnf"}, memories); err == nil {
		t.Fatal("MinIO orderBy accepted")
	}
	src, err := schedule.GridSource(insts, nil, "enumerate", []string{"lsnf"}, memories)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Next(); err == nil || !strings.Contains(err.Error(), "no traversal to replay") {
		t.Fatalf("orderless orderBy: first Next err = %v", err)
	}
}

func TestWriteRows(t *testing.T) {
	rows := []schedule.Row{
		{Instance: "a", Algorithm: "minmem", Kind: "minmemory", Memory: 42, Seconds: 0.25},
		{Instance: "b", Algorithm: "lsnf", Kind: "minio", Budget: 10, Memory: 9, IO: 7, Writes: 2, Seconds: 0.5},
	}
	var csvBuf bytes.Buffer
	if err := schedule.WriteRowsCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csvBuf.String())
	}
	if lines[0] != "instance,algorithm,kind,budget,memory,io,writes,seconds" {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "b,lsnf,minio,10,9,7,2,") {
		t.Fatalf("bad CSV row %q", lines[2])
	}
	var jsonBuf bytes.Buffer
	if err := schedule.WriteRowsJSON(&jsonBuf, rows); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(jl) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(jl))
	}
	if !strings.Contains(jl[1], `"algorithm":"lsnf"`) || !strings.Contains(jl[1], `"io":7`) {
		t.Fatalf("bad JSONL row %q", jl[1])
	}
}
