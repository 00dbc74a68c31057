package schedule

import (
	"io"
	"strconv"
	"time"

	"repro/internal/tree"
)

// Instance is one named workflow of an evaluation grid: a name and a tree,
// so any caller can feed trees from any source (Section VI's suites and the
// corpus pipeline's instances reach the evaluator in this form).
type Instance struct {
	Name string
	Tree *tree.Tree
}

// Job is one (instance, algorithm) cell of an evaluation grid.
type Job struct {
	// Instance names the workflow for reporting.
	Instance string
	// Tree is the workflow itself.
	Tree *tree.Tree
	// Algorithm is the registry name of the solver to run.
	Algorithm string
	// Order, Memory and Window fill the algorithm's Request.
	Order  []int
	Memory int64
	Window int
	// solved is this job's outcome when the source that built the job has
	// already computed it: GridSource solves each instance's orderBy job
	// to derive its policy jobs. Local evaluation reports it instead of
	// solving again. It never goes on the wire, so remote and sharded
	// backends recompute.
	solved *solvedJob
}

// solvedJob is an outcome computed ahead of evaluation, with the seconds
// the solve took.
type solvedJob struct {
	out     Outcome
	seconds float64
}

// Row is the structured result of one job, ready for CSV or JSON streaming.
// Budget is emitted unconditionally (no omitempty): MinMemory rows carry an
// explicit zero, keeping JSON objects in column parity with the CSV header.
type Row struct {
	Instance  string  `json:"instance"`
	Algorithm string  `json:"algorithm"`
	Kind      string  `json:"kind"`
	Budget    int64   `json:"budget"`
	Memory    int64   `json:"memory"`
	IO        int64   `json:"io"`
	Writes    int     `json:"writes"`
	Seconds   float64 `json:"seconds"`
}

// BatchOptions configures a Backend run.
type BatchOptions struct {
	// Workers bounds the worker pool; ≤ 0 selects GOMAXPROCS. Remote
	// backends forward it to the server, where the same convention applies.
	Workers int
	// OnRow, when non-nil, receives each row as its job completes
	// (completion order, serialized by the evaluator). The returned slice
	// is always in job order regardless.
	OnRow func(Row)
	// OnRowIndexed is OnRow plus the job index, for callers that need to
	// correlate streamed rows with jobs (the evaluation service streams
	// indexed rows over the wire). Serialized with OnRow.
	OnRowIndexed func(i int, r Row)
}

func runJob(j Job) (Row, error) {
	alg, err := Lookup(j.Algorithm)
	if err != nil {
		return Row{}, err
	}
	if s := j.solved; s != nil {
		return jobRow(j, alg, s.out, s.seconds), nil
	}
	start := time.Now()
	out, err := alg.Run(Request{Tree: j.Tree, Order: j.Order, Memory: j.Memory, Window: j.Window})
	if err != nil {
		return Row{}, err
	}
	return jobRow(j, alg, out, time.Since(start).Seconds()), nil
}

// jobRow is the row reporting j's outcome under alg.
func jobRow(j Job, alg Algorithm, out Outcome, seconds float64) Row {
	return Row{
		Instance:  j.Instance,
		Algorithm: j.Algorithm,
		Kind:      alg.Kind().String(),
		Budget:    j.Memory,
		Memory:    out.Memory,
		IO:        out.IO,
		Writes:    len(out.Writes),
		Seconds:   seconds,
	}
}

// MinMemoryGrid expands instances × MinMemory algorithm names into jobs,
// instance-major: jobs[i*len(algorithms)+k] is (instances[i], algorithms[k]).
func MinMemoryGrid(insts []Instance, algorithms []string) []Job {
	jobs := make([]Job, 0, len(insts)*len(algorithms))
	for _, inst := range insts {
		for _, a := range algorithms {
			jobs = append(jobs, Job{Instance: inst.Name, Tree: inst.Tree, Algorithm: a})
		}
	}
	return jobs
}

// rowCSVHeader is the CSV column set; Row's JSON field order matches it.
var rowCSVHeader = []string{"instance", "algorithm", "kind", "budget", "memory", "io", "writes", "seconds"}

func rowCSVRecord(r Row) []string {
	return []string{
		r.Instance, r.Algorithm, r.Kind,
		strconv.FormatInt(r.Budget, 10),
		strconv.FormatInt(r.Memory, 10),
		strconv.FormatInt(r.IO, 10),
		strconv.Itoa(r.Writes),
		strconv.FormatFloat(r.Seconds, 'g', -1, 64),
	}
}

// WriteRowsCSV writes rows as CSV with a header line (the slice form of
// NewCSVSink).
func WriteRowsCSV(w io.Writer, rows []Row) error {
	sink := NewCSVSink(w)
	for _, r := range rows {
		if err := sink.Push(r); err != nil {
			return err
		}
	}
	return sink.Flush()
}

// WriteRowsJSON writes rows as JSON Lines, one object per row (the slice
// form of NewJSONLSink).
func WriteRowsJSON(w io.Writer, rows []Row) error {
	sink := NewJSONLSink(w)
	for _, r := range rows {
		if err := sink.Push(r); err != nil {
			return err
		}
	}
	return nil
}
