package schedule_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/schedule"
)

// parseRowsCSV reads back what WriteRowsCSV produced.
func parseRowsCSV(t *testing.T, data []byte) []schedule.Row {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || strings.Join(recs[0], ",") != "instance,algorithm,kind,budget,memory,io,writes,seconds" {
		t.Fatalf("bad CSV header %v", recs)
	}
	var rows []schedule.Row
	for _, rec := range recs[1:] {
		if len(rec) != 8 {
			t.Fatalf("CSV record has %d fields: %v", len(rec), rec)
		}
		num := func(s string) int64 {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				t.Fatalf("bad numeric field %q: %v", s, err)
			}
			return v
		}
		sec, err := strconv.ParseFloat(rec[7], 64)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, schedule.Row{
			Instance: rec[0], Algorithm: rec[1], Kind: rec[2],
			Budget: num(rec[3]), Memory: num(rec[4]), IO: num(rec[5]),
			Writes: int(num(rec[6])), Seconds: sec,
		})
	}
	return rows
}

// Rows must survive a CSV round-trip and a JSONL round-trip bit for bit,
// and both encodings must carry the same eight columns for every kind of
// row — in particular, a MinMemory row's zero budget is emitted, not
// omitted.
func TestRowsRoundTrip(t *testing.T) {
	insts := batchInstances(t)[:2]
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "minmem"})
	for _, inst := range insts {
		jobs = append(jobs, schedule.Job{
			Instance: inst.Name, Tree: inst.Tree, Algorithm: "lsnf",
			Order: inst.Tree.TopDown(), Memory: inst.Tree.TotalF(),
		})
	}
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var csvBuf bytes.Buffer
	if err := schedule.WriteRowsCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	back := parseRowsCSV(t, csvBuf.Bytes())
	if len(back) != len(rows) {
		t.Fatalf("CSV round-trip returned %d rows, want %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i] != rows[i] {
			t.Fatalf("CSV round-trip changed row %d: %+v vs %+v", i, back[i], rows[i])
		}
	}

	var jsonBuf bytes.Buffer
	if err := schedule.WriteRowsJSON(&jsonBuf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(rows))
	}
	for i, line := range lines {
		// CSV/JSON column parity: every row serializes all eight fields.
		for _, field := range []string{`"instance"`, `"algorithm"`, `"kind"`, `"budget"`, `"memory"`, `"io"`, `"writes"`, `"seconds"`} {
			if !strings.Contains(line, field) {
				t.Fatalf("JSONL line %d missing field %s: %s", i, field, line)
			}
		}
		var r schedule.Row
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r != rows[i] {
			t.Fatalf("JSONL round-trip changed row %d: %+v vs %+v", i, r, rows[i])
		}
	}
}
