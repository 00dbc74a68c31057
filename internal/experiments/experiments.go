// Package experiments reproduces every table and figure of Section VI.
// Each Run* function computes the raw data; the Format* helpers print it the
// way the paper reports it. cmd/experiments and the repository-level
// benchmarks are thin wrappers around this package.
//
// All solvers are driven by name through the schedule registry and executed
// on the schedule batch evaluator; this package contains no per-algorithm
// dispatch of its own.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/minio"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/tree"

	// Register the MinMemory solvers with the schedule registry; minio
	// (imported above for the 2-Partition subroutine) and the schedule
	// package itself register the MinIO side.
	_ "repro/internal/traversal"
)

// mustLookup fetches a registered algorithm; the names used by this package
// are registered by the imports above, so a miss is a programming error.
func mustLookup(name string) schedule.Algorithm {
	a, err := schedule.Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

// toGridInstances adapts dataset instances to the schedule batch evaluator.
func toGridInstances(insts []dataset.Instance) []schedule.Instance {
	out := make([]schedule.Instance, len(insts))
	for i, inst := range insts {
		out[i] = schedule.Instance{Name: inst.Name, Tree: inst.Tree}
	}
	return out
}

// policyRows streams the policy half of the experiment grid — the orderBy
// traversal of every instance replayed under each policy at each budget of
// memories — through the Local backend and returns the rows in job order.
func policyRows(insts []schedule.Instance, orderBy string, policies []string, memories func(*tree.Tree, schedule.Outcome) ([]int64, error)) ([]schedule.Row, error) {
	src, err := schedule.GridSource(schedule.InstanceSliceSource(insts), nil, orderBy, policies, memories)
	if err != nil {
		return nil, err
	}
	var rows schedule.Collector
	if err := (schedule.Local{}).Stream(context.Background(), src, &rows, schedule.StreamOptions{}); err != nil {
		return nil, err
	}
	return rows.Rows(), nil
}

// MemoryComparison is the raw data behind Table I / Figure 5 (assembly
// trees) and Table II / Figure 9 (random-weight trees).
type MemoryComparison struct {
	Names     []string
	PostOrder []int64
	Optimal   []int64
}

// RunMemoryComparison computes the best-postorder and optimal memory for
// every instance.
func RunMemoryComparison(insts []dataset.Instance) MemoryComparison {
	po, opt := mustLookup("postorder"), mustLookup("minmem")
	mc := MemoryComparison{}
	for _, inst := range insts {
		poOut, err1 := po.Run(schedule.Request{Tree: inst.Tree})
		optOut, err2 := opt.Run(schedule.Request{Tree: inst.Tree})
		if err1 != nil || err2 != nil {
			// The exact solvers never fail on a valid tree.
			panic(fmt.Sprintf("experiments: %s: %v %v", inst.Name, err1, err2))
		}
		mc.Names = append(mc.Names, inst.Name)
		mc.PostOrder = append(mc.PostOrder, poOut.Memory)
		mc.Optimal = append(mc.Optimal, optOut.Memory)
	}
	return mc
}

// Stats summarizes a comparison the way Tables I and II do.
type Stats struct {
	Cases           int
	NonOptimal      int
	FractionNonOpt  float64
	MaxRatio        float64
	MeanRatio       float64
	StdDevRatio     float64
	MeanRatioNonOpt float64 // mean over the non-optimal cases only
	WorstInstance   string
}

// Stats computes the summary.
func (mc MemoryComparison) Stats() Stats {
	st := Stats{Cases: len(mc.PostOrder), MaxRatio: 1}
	if st.Cases == 0 {
		return st
	}
	var sum, sumNon float64
	ratios := make([]float64, st.Cases)
	for i := range mc.PostOrder {
		r := float64(mc.PostOrder[i]) / float64(mc.Optimal[i])
		ratios[i] = r
		sum += r
		if mc.PostOrder[i] > mc.Optimal[i] {
			st.NonOptimal++
			sumNon += r
		}
		if r > st.MaxRatio {
			st.MaxRatio = r
			st.WorstInstance = mc.Names[i]
		}
	}
	st.FractionNonOpt = float64(st.NonOptimal) / float64(st.Cases)
	st.MeanRatio = sum / float64(st.Cases)
	var v float64
	for _, r := range ratios {
		v += (r - st.MeanRatio) * (r - st.MeanRatio)
	}
	st.StdDevRatio = math.Sqrt(v / float64(st.Cases))
	if st.NonOptimal > 0 {
		st.MeanRatioNonOpt = sumNon / float64(st.NonOptimal)
	}
	return st
}

// Profile returns Figure 5/9-style curves (PostOrder vs Optimal). When
// nonOptimalOnly is set, instances where PostOrder is optimal are dropped,
// matching Figure 5's framing.
func (mc MemoryComparison) Profile(nonOptimalOnly bool) ([]profile.Curve, error) {
	var po, opt []float64
	for i := range mc.PostOrder {
		if nonOptimalOnly && mc.PostOrder[i] == mc.Optimal[i] {
			continue
		}
		po = append(po, float64(mc.PostOrder[i]))
		opt = append(opt, float64(mc.Optimal[i]))
	}
	if len(po) == 0 {
		// All optimal: degenerate but valid single-point profile.
		po, opt = []float64{1}, []float64{1}
	}
	return profile.Compute(profile.Table{
		Methods: []string{"Optimal", "PostOrder"},
		Costs:   [][]float64{opt, po},
	})
}

// FormatStats renders a Table I / Table II block.
func FormatStats(title string, st Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  Test cases                              %d\n", st.Cases)
	fmt.Fprintf(&b, "  Non optimal PostOrder traversals        %.1f%% (%d)\n", 100*st.FractionNonOpt, st.NonOptimal)
	fmt.Fprintf(&b, "  Max. PostOrder to opt. cost ratio       %.2f\n", st.MaxRatio)
	fmt.Fprintf(&b, "  Avg. PostOrder to opt. cost ratio       %.2f\n", st.MeanRatio)
	fmt.Fprintf(&b, "  Std. dev. of cost ratio                 %.2f\n", st.StdDevRatio)
	if st.WorstInstance != "" {
		fmt.Fprintf(&b, "  Worst instance                          %s\n", st.WorstInstance)
	}
	return b.String()
}

// TimingResult is the raw data behind Figure 6.
type TimingResult struct {
	Names   []string
	Seconds map[string][]float64 // algorithm (registry name) → per-instance wall time
}

// TimingAlgorithms is the display order of Figure 6 (registry names).
var TimingAlgorithms = []string{"minmem", "postorder", "liu"}

// RunTimings measures the wall-clock time of the three MinMemory algorithms
// on every instance (one run each, on a single worker so measurements do not
// contend; the algorithms are deterministic).
func RunTimings(insts []dataset.Instance) TimingResult {
	jobs := schedule.MinMemoryGrid(toGridInstances(insts), TimingAlgorithms)
	rows, err := schedule.Local{}.Run(context.Background(), jobs, schedule.BatchOptions{Workers: 1})
	if err != nil {
		panic(err) // the exact solvers never fail on a valid tree
	}
	tr := TimingResult{Seconds: map[string][]float64{}}
	for _, inst := range insts {
		tr.Names = append(tr.Names, inst.Name)
	}
	for _, row := range rows {
		tr.Seconds[row.Algorithm] = append(tr.Seconds[row.Algorithm], row.Seconds)
	}
	return tr
}

// Profile returns Figure 6-style runtime curves.
func (tr TimingResult) Profile() ([]profile.Curve, error) {
	methods := make([]string, len(TimingAlgorithms))
	costs := make([][]float64, len(TimingAlgorithms))
	for i, alg := range TimingAlgorithms {
		methods[i] = schedule.DisplayName(alg)
		costs[i] = tr.Seconds[alg]
	}
	return profile.Compute(profile.Table{Methods: methods, Costs: costs})
}

// FastestCounts reports how often each algorithm was the (possibly tied)
// fastest, Figure 6's headline number.
func (tr TimingResult) FastestCounts() map[string]int {
	out := map[string]int{}
	n := len(tr.Names)
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		for _, alg := range TimingAlgorithms {
			if tr.Seconds[alg][i] < best {
				best = tr.Seconds[alg][i]
			}
		}
		for _, alg := range TimingAlgorithms {
			if tr.Seconds[alg][i] <= best*1.0000001 {
				out[alg]++
			}
		}
	}
	return out
}

// MemoryFractions are the points of the out-of-core memory sweep: the
// available memory interpolates between max MemReq (fraction 0) and the
// in-core optimal (fraction 1), as in Section VI-D.
var MemoryFractions = []float64{0, 1.0 / 3, 2.0 / 3}

// sweepFromOptimum returns the memory values for one tree given its in-core
// optimum hi, deduplicated.
func sweepFromOptimum(t *tree.Tree, hi int64) []int64 {
	lo := t.MaxMemReq()
	var out []int64
	for _, f := range MemoryFractions {
		m := lo + int64(f*float64(hi-lo))
		if len(out) == 0 || out[len(out)-1] != m {
			out = append(out, m)
		}
	}
	return out
}

// sweepMemories is sweepFromOptimum with the optimum solved by minmem.
func sweepMemories(t *tree.Tree) ([]int64, error) {
	opt, err := mustLookup("minmem").Run(schedule.Request{Tree: t})
	if err != nil {
		return nil, err
	}
	return sweepFromOptimum(t, opt.Memory), nil
}

// HeuristicResult is the raw data behind Figure 7: I/O volume of every
// eviction policy on the same traversals, keyed by registry policy name.
type HeuristicResult struct {
	Cases  []string
	Volume map[string][]float64
}

// RunHeuristics reproduces Figure 7: traversals from MinMem (the paper's
// choice for this figure), every eviction policy, across the memory sweep.
// The grid is evaluated concurrently; results are deterministic.
func RunHeuristics(insts []dataset.Instance) (HeuristicResult, error) {
	policies := schedule.EvictionPolicyNames()
	// The orderBy solver is minmem, so its outcome already carries the
	// in-core optimum the sweep is anchored on — no second solve.
	memories := func(t *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return sweepFromOptimum(t, out.Memory), nil
	}
	rows, err := policyRows(toGridInstances(insts), "minmem", policies, memories)
	if err != nil {
		return HeuristicResult{}, err
	}
	hr := HeuristicResult{Volume: map[string][]float64{}}
	for _, row := range rows {
		if row.Algorithm == policies[0] {
			hr.Cases = append(hr.Cases, fmt.Sprintf("%s@%d", row.Instance, row.Budget))
		}
		hr.Volume[row.Algorithm] = append(hr.Volume[row.Algorithm], float64(row.IO))
	}
	return hr, nil
}

// Profile returns Figure 7-style curves.
func (hr HeuristicResult) Profile() ([]profile.Curve, error) {
	policies := schedule.EvictionPolicyNames()
	methods := make([]string, len(policies))
	costs := make([][]float64, len(policies))
	for i, pol := range policies {
		methods[i] = "MinMem + " + schedule.DisplayName(pol)
		costs[i] = hr.Volume[pol]
	}
	return profile.Compute(profile.Table{Methods: methods, Costs: costs})
}

// TraversalIOResult is the raw data behind Figure 8: the three traversal
// algorithms under the First Fit policy.
type TraversalIOResult struct {
	Cases  []string
	Volume map[string][]float64
}

// traversalIOOrderings are the MinMemory algorithms compared in Figure 8.
var traversalIOOrderings = []string{"postorder", "liu", "minmem"}

// TraversalAlgorithms is the display order of Figure 8 (labels derived from
// the registry display names).
var TraversalAlgorithms = func() []string {
	out := make([]string, len(traversalIOOrderings))
	for i, alg := range traversalIOOrderings {
		out[i] = schedule.DisplayName(alg) + " + " + schedule.DisplayName("first-fit")
	}
	return out
}()

// RunTraversalIO reproduces Figure 8: one MinIO grid per traversal
// algorithm, all replayed under First Fit across the memory sweep.
func RunTraversalIO(insts []dataset.Instance) (TraversalIOResult, error) {
	tio := TraversalIOResult{Volume: map[string][]float64{}}
	gridInsts := toGridInstances(insts)
	// The budget sweep is a property of the instance, not of the ordering
	// algorithm: compute it once per tree so the three grids below don't
	// re-run the exact solver to rediscover identical budgets.
	sweeps := make(map[*tree.Tree][]int64, len(insts))
	for _, inst := range insts {
		mems, err := sweepMemories(inst.Tree)
		if err != nil {
			return tio, err
		}
		sweeps[inst.Tree] = mems
	}
	memories := func(t *tree.Tree, _ schedule.Outcome) ([]int64, error) { return sweeps[t], nil }
	// One grid per ordering algorithm; the case list (instance × budget) is
	// identical across grids, so it is recorded on the first.
	for k, orderBy := range traversalIOOrderings {
		rows, err := policyRows(gridInsts, orderBy, []string{"first-fit"}, memories)
		if err != nil {
			return tio, err
		}
		label := TraversalAlgorithms[k]
		for _, row := range rows {
			if k == 0 {
				tio.Cases = append(tio.Cases, fmt.Sprintf("%s@%d", row.Instance, row.Budget))
			}
			tio.Volume[label] = append(tio.Volume[label], float64(row.IO))
		}
	}
	return tio, nil
}

// Profile returns Figure 8-style curves.
func (tio TraversalIOResult) Profile() ([]profile.Curve, error) {
	costs := make([][]float64, len(TraversalAlgorithms))
	for i, name := range TraversalAlgorithms {
		costs[i] = tio.Volume[name]
	}
	return profile.Compute(profile.Table{Methods: TraversalAlgorithms, Costs: costs})
}

// Theorem1Row is one line of the Theorem 1 demonstration: the nested
// harpoon at a given depth with the closed-form and measured memories.
type Theorem1Row struct {
	Levels             int
	Nodes              int
	PostOrder, Optimal int64
	WantPO, WantOpt    int64
	Ratio              float64
}

// RunTheorem1 builds nested harpoons of growing depth and checks the
// algorithms against the closed forms of the proof.
func RunTheorem1(b int, maxLevels int, m, eps int64) ([]Theorem1Row, error) {
	po, opt := mustLookup("postorder"), mustLookup("minmem")
	var rows []Theorem1Row
	for l := 1; l <= maxLevels; l++ {
		h, err := tree.NestedHarpoon(b, l, m, eps)
		if err != nil {
			return nil, err
		}
		poOut, err := po.Run(schedule.Request{Tree: h})
		if err != nil {
			return nil, err
		}
		optOut, err := opt.Run(schedule.Request{Tree: h})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Theorem1Row{
			Levels:    l,
			Nodes:     h.Len(),
			PostOrder: poOut.Memory,
			Optimal:   optOut.Memory,
			WantPO:    tree.HarpoonPostOrderMemory(b, l, m, eps),
			WantOpt:   tree.HarpoonOptimalMemory(b, l, m, eps),
			Ratio:     float64(poOut.Memory) / float64(optOut.Memory),
		})
	}
	return rows, nil
}

// Theorem2Row is one verification of the NP-hardness reduction.
type Theorem2Row struct {
	Items      []int64
	Solvable   bool
	MinIO      int64
	Bound      int64
	Consistent bool
}

// RunTheorem2 draws even-sum 2-Partition instances deterministically and
// checks that the reduction tree has MinIO ≤ S/2 exactly when the instance
// is solvable.
func RunTheorem2(cases int) ([]Theorem2Row, error) {
	oracle := mustLookup("minio-brute")
	rng := newDeterministicRand(2011)
	var rows []Theorem2Row
	for len(rows) < cases {
		n := 2 + rng.Intn(4)
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = 1 + int64(rng.Intn(9))
			sum += a[i]
		}
		if sum%2 != 0 {
			continue
		}
		inst, err := tree.NewTwoPartition(a)
		if err != nil {
			return nil, err
		}
		out, err := oracle.Run(schedule.Request{Tree: inst.Tree, Memory: inst.Memory})
		if err != nil {
			return nil, err
		}
		solvable := minio.SolveTwoPartition(a)
		rows = append(rows, Theorem2Row{
			Items:      a,
			Solvable:   solvable,
			MinIO:      out.IO,
			Bound:      inst.IOBound,
			Consistent: solvable == (out.IO <= inst.IOBound),
		})
	}
	return rows, nil
}

// FormatCurveSummaries prints, for each profile curve, the fraction of
// cases where the method was best (τ=1), within 10% (τ=1.1), and its mean
// ratio — the numbers one reads off Figures 5–9.
func FormatCurveSummaries(curves []profile.Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-26s %8s %8s %8s %8s\n", "method", "best", "τ≤1.1", "mean", "max")
	for _, c := range curves {
		st := profile.Summarize(c)
		fmt.Fprintf(&b, "  %-26s %7.1f%% %7.1f%% %8.3f %8.3f\n",
			c.Method, 100*c.Fraction(1), 100*c.Fraction(1.1), st.Mean, st.Max)
	}
	return b.String()
}

// SortedNames returns the instance names sorted, for stable output.
func SortedNames(insts []dataset.Instance) []string {
	names := make([]string, len(insts))
	for i, inst := range insts {
		names[i] = inst.Name
	}
	sort.Strings(names)
	return names
}
