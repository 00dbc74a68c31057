package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/schedule"
	"repro/internal/traversal"
)

// RunMemoryComparisonParallel is RunMemoryComparison fanned out on the
// schedule batch evaluator; results are bit-identical to the sequential run
// (verified in tests) because instances are independent.
func RunMemoryComparisonParallel(ctx context.Context, insts []schedule.Instance, workers int) (MemoryComparison, error) {
	algs := []string{"postorder", "minmem"}
	jobs := schedule.MinMemoryGrid(insts, algs)
	rows, err := schedule.Local{}.Run(ctx, jobs, schedule.BatchOptions{Workers: workers})
	if err != nil {
		return MemoryComparison{}, err
	}
	mc := MemoryComparison{}
	for i, inst := range insts {
		mc.Names = append(mc.Names, inst.Name)
		mc.PostOrder = append(mc.PostOrder, rows[i*len(algs)].Memory)
		mc.Optimal = append(mc.Optimal, rows[i*len(algs)+1].Memory)
	}
	return mc, nil
}

// AblationPostorderRule quantifies the value of Liu's child-sorting rule:
// for each instance it compares the natural postorder (stored child order)
// with the best postorder. Returns the fraction of instances where sorting
// helps and the mean natural/best memory ratio.
func AblationPostorderRule(insts []schedule.Instance) (fractionImproved, meanRatio float64) {
	nat, best := mustLookup("natural-postorder"), mustLookup("postorder")
	improved := 0
	var sum float64
	for _, inst := range insts {
		natOut, err1 := nat.Run(schedule.Request{Tree: inst.Tree})
		bestOut, err2 := best.Run(schedule.Request{Tree: inst.Tree})
		if err1 != nil || err2 != nil {
			panic(fmt.Sprintf("experiments: %s: %v %v", inst.Name, err1, err2))
		}
		if natOut.Memory > bestOut.Memory {
			improved++
		}
		sum += float64(natOut.Memory) / float64(bestOut.Memory)
	}
	n := float64(len(insts))
	return float64(improved) / n, sum / n
}

// AblationMinMemReuse quantifies the frontier reuse of Algorithm 4: the
// total number of Explore invocations with and without carrying the saved
// cut between memory lifts, summed over the suite. Both variants return
// the same optimal memory (checked). The call counting uses the traversal
// package's instrumentation directly — it is a cost probe, not a solver.
func AblationMinMemReuse(insts []schedule.Instance) (withReuse, withoutReuse int64, err error) {
	reuse, noReuse := mustLookup("minmem"), mustLookup("minmem-noreuse")
	for _, inst := range insts {
		a, err := reuse.Run(schedule.Request{Tree: inst.Tree})
		if err != nil {
			return 0, 0, err
		}
		b, err := noReuse.Run(schedule.Request{Tree: inst.Tree})
		if err != nil {
			return 0, 0, err
		}
		if a.Memory != b.Memory {
			return 0, 0, fmt.Errorf("ablation: reuse changed the result on %s (%d vs %d)", inst.Name, a.Memory, b.Memory)
		}
		withReuse += traversal.ExploreCalls(inst.Tree, true)
		withoutReuse += traversal.ExploreCalls(inst.Tree, false)
	}
	return withReuse, withoutReuse, nil
}

// AblationBestKWindow sweeps the Best-K subset window and reports the total
// I/O volume over the suite at the tightest memory (MaxMemReq), using
// MinMem traversals. Larger windows can only match or reduce each step's
// overshoot at exponentially growing search cost.
func AblationBestKWindow(insts []schedule.Instance, windows []int) (map[int]int64, error) {
	minmem, bestK := mustLookup("minmem"), mustLookup("best-k")
	out := make(map[int]int64, len(windows))
	for _, k := range windows {
		var total int64
		for _, inst := range insts {
			order, err := minmem.Run(schedule.Request{Tree: inst.Tree})
			if err != nil {
				return nil, err
			}
			sim, err := bestK.Run(schedule.Request{
				Tree:   inst.Tree,
				Order:  order.Order,
				Memory: inst.Tree.MaxMemReq(),
				Window: k,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation: %s K=%d: %w", inst.Name, k, err)
			}
			total += sim.IO
		}
		out[k] = total
	}
	return out, nil
}

// FormatAblations renders the three ablations as a report block.
func FormatAblations(insts []schedule.Instance) (string, error) {
	var b strings.Builder
	frac, ratio := AblationPostorderRule(insts)
	fmt.Fprintf(&b, "Ablation — Liu's postorder child-sorting rule\n")
	fmt.Fprintf(&b, "  natural postorder worse on %.1f%% of instances, mean natural/best ratio %.3f\n", 100*frac, ratio)
	withR, withoutR, err := AblationMinMemReuse(insts)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Ablation — MinMem frontier reuse between memory lifts\n")
	fmt.Fprintf(&b, "  Explore calls with reuse %d, without %d (%.2fx saved)\n",
		withR, withoutR, float64(withoutR)/float64(withR))
	windows := []int{1, 2, 5, 8}
	io, err := AblationBestKWindow(insts, windows)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Ablation — Best-K combination window\n")
	for _, k := range windows {
		fmt.Fprintf(&b, "  K=%d: total IO %d\n", k, io[k])
	}
	return b.String(), nil
}
