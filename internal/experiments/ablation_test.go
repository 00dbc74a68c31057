package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestParallelMatchesSequential(t *testing.T) {
	insts := smallSuite(t)
	seq := RunMemoryComparison(insts)
	for _, workers := range []int{1, 3, 8} {
		par, err := RunMemoryComparisonParallel(context.Background(), insts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel (%d workers) differs from sequential", workers)
		}
	}
}

func TestAblationPostorderRule(t *testing.T) {
	insts := RandomWeightSuite(smallSuite(t), 2)
	frac, ratio := AblationPostorderRule(insts)
	if frac < 0 || frac > 1 {
		t.Fatalf("fraction %f out of range", frac)
	}
	if ratio < 1 {
		t.Fatalf("mean ratio %f below 1: natural postorder beat the best postorder", ratio)
	}
}

func TestAblationMinMemReuse(t *testing.T) {
	insts := smallSuite(t)[:8]
	withR, withoutR, err := AblationMinMemReuse(insts)
	if err != nil {
		t.Fatal(err)
	}
	if withR <= 0 || withoutR <= 0 {
		t.Fatal("no Explore calls counted")
	}
	if withoutR < withR {
		t.Fatalf("restarting was cheaper (%d) than reuse (%d)?", withoutR, withR)
	}
}

func TestAblationBestKWindow(t *testing.T) {
	insts := smallSuite(t)[:6]
	io, err := AblationBestKWindow(insts, []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(io) != 2 {
		t.Fatalf("windows missing: %v", io)
	}
	// K=1 degenerates to a single-file greedy; a wider window cannot lose
	// on total overshoot in aggregate by much — sanity: both non-negative.
	for k, v := range io {
		if v < 0 {
			t.Fatalf("K=%d negative IO %d", k, v)
		}
	}
}

func TestFormatAblations(t *testing.T) {
	out, err := FormatAblations(smallSuite(t)[:6])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"child-sorting", "frontier reuse", "Best-K"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
