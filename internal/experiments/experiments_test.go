package experiments

import (
	"strings"
	"testing"

	"repro/internal/schedule"
)

func TestMemoryComparisonAndStats(t *testing.T) {
	insts := smallSuite(t)
	mc := RunMemoryComparison(insts)
	if len(mc.PostOrder) != len(insts) {
		t.Fatalf("comparison covered %d of %d instances", len(mc.PostOrder), len(insts))
	}
	st := mc.Stats()
	if st.Cases != len(insts) {
		t.Fatalf("stats cases %d", st.Cases)
	}
	if st.MaxRatio < 1 || st.MeanRatio < 1 {
		t.Fatalf("ratios below 1: %+v", st)
	}
	// PostOrder never beats optimal.
	for i := range mc.PostOrder {
		if mc.PostOrder[i] < mc.Optimal[i] {
			t.Fatalf("%s: postorder below optimal", mc.Names[i])
		}
	}
	out := FormatStats("Table I", st)
	if !strings.Contains(out, "Non optimal") || !strings.Contains(out, "Max. PostOrder") {
		t.Fatalf("bad format:\n%s", out)
	}
	// Profiles build in both modes.
	if _, err := mc.Profile(false); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Profile(true); err != nil {
		t.Fatal(err)
	}
	// Empty stats don't divide by zero.
	empty := MemoryComparison{}.Stats()
	if empty.Cases != 0 {
		t.Fatal("empty stats")
	}
}

func TestRandomWeightComparisonWorseThanAssembly(t *testing.T) {
	insts := smallSuite(t)
	asm := RunMemoryComparison(insts).Stats()
	rnd := RunMemoryComparison(RandomWeightSuite(insts, 2)).Stats()
	// Section VI-E's headline: random weights make PostOrder non-optimal far
	// more often than assembly weights do.
	if rnd.FractionNonOpt < asm.FractionNonOpt {
		t.Fatalf("random trees less pathological (%f) than assembly trees (%f)",
			rnd.FractionNonOpt, asm.FractionNonOpt)
	}
	if rnd.FractionNonOpt == 0 {
		t.Fatal("random-weight suite produced no non-optimal postorders at all")
	}
}

func TestTimings(t *testing.T) {
	insts := smallSuite(t)[:6]
	tr := RunTimings(insts)
	for _, alg := range TimingAlgorithms {
		if len(tr.Seconds[alg]) != len(insts) {
			t.Fatalf("%s timed %d instances", alg, len(tr.Seconds[alg]))
		}
		for _, s := range tr.Seconds[alg] {
			if s < 0 {
				t.Fatalf("%s negative time", alg)
			}
		}
	}
	if _, err := tr.Profile(); err != nil {
		t.Fatal(err)
	}
	counts := tr.FastestCounts()
	total := 0
	for _, alg := range TimingAlgorithms {
		total += counts[alg]
	}
	if total < len(insts) {
		t.Fatalf("fastest counts %v cover %d < %d instances", counts, total, len(insts))
	}
}

func TestHeuristicsAndTraversalIO(t *testing.T) {
	insts := smallSuite(t)[:8]
	hr, err := RunHeuristics(insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Cases) == 0 {
		t.Fatal("no heuristic cases")
	}
	for _, pol := range schedule.EvictionPolicyNames() {
		if len(hr.Volume[pol]) != len(hr.Cases) {
			t.Fatalf("%v covered %d of %d cases", pol, len(hr.Volume[pol]), len(hr.Cases))
		}
	}
	if _, err := hr.Profile(); err != nil {
		t.Fatal(err)
	}
	tio, err := RunTraversalIO(insts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range TraversalAlgorithms {
		if len(tio.Volume[name]) != len(tio.Cases) {
			t.Fatalf("%s covered %d of %d cases", name, len(tio.Volume[name]), len(tio.Cases))
		}
	}
	if _, err := tio.Profile(); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1Rows(t *testing.T) {
	rows, err := RunTheorem1(3, 4, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		if r.PostOrder != r.WantPO {
			t.Fatalf("L=%d: postorder %d != closed form %d", r.Levels, r.PostOrder, r.WantPO)
		}
		if r.Optimal != r.WantOpt {
			t.Fatalf("L=%d: optimal %d != closed form %d", r.Levels, r.Optimal, r.WantOpt)
		}
		if r.Ratio <= prev {
			t.Fatalf("ratio not growing at L=%d", r.Levels)
		}
		prev = r.Ratio
	}
	if _, err := RunTheorem1(1, 1, 10, 1); err == nil {
		t.Fatal("invalid harpoon accepted")
	}
}

func TestTheorem2Rows(t *testing.T) {
	rows, err := RunTheorem2(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Consistent {
			t.Fatalf("reduction inconsistent on %v: solvable=%v io=%d bound=%d",
				r.Items, r.Solvable, r.MinIO, r.Bound)
		}
	}
}
