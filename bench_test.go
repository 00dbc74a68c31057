package repro

// One benchmark per table and figure of the paper's Section VI, plus the
// two theorem constructions. Each benchmark exercises exactly the code that
// regenerates the corresponding artifact (cmd/experiments prints the full
// rows; EXPERIMENTS.md records paper-vs-measured numbers). The suite is the
// small Section VI suite so `go test -bench=.` stays fast; run
// `go run ./cmd/experiments -exp all -scale full` for the real thing.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/factor"
	"repro/internal/minio"
	"repro/internal/ordering"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traversal"
	"repro/internal/tree"
)

var (
	suiteOnce sync.Once
	suite     []schedule.Instance
	suiteErr  error
)

func benchSuite(b *testing.B) []schedule.Instance {
	b.Helper()
	suiteOnce.Do(func() {
		var manifest []corpus.Entry
		if manifest, suiteErr = corpus.SuiteManifest("small"); suiteErr == nil {
			suite, suiteErr = experiments.Suite(manifest)
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkTableIPostOrderVsOptimal regenerates Table I: PostOrder memory
// versus the optimum over the assembly-tree suite.
func BenchmarkTableIPostOrderVsOptimal(b *testing.B) {
	insts := benchSuite(b)
	var st experiments.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = experiments.RunMemoryComparison(insts).Stats()
	}
	b.ReportMetric(100*st.FractionNonOpt, "%nonopt")
	b.ReportMetric(st.MaxRatio, "maxratio")
}

// BenchmarkFig5MemoryProfile regenerates Figure 5: the performance profile
// of PostOrder against the optimum on the non-optimal cases.
func BenchmarkFig5MemoryProfile(b *testing.B) {
	insts := benchSuite(b)
	mc := experiments.RunMemoryComparison(insts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Profile(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: the run-time comparison of the three
// MinMemory algorithms (each sub-benchmark times one algorithm over the
// whole suite; the profile is the ratio of these numbers).
func BenchmarkFig6(b *testing.B) {
	insts := benchSuite(b)
	algs := []struct {
		name string
		f    func(*tree.Tree) traversal.Result
	}{
		{"MinMem", traversal.MinMem},
		{"PostOrder", traversal.BestPostOrder},
		{"Liu", traversal.LiuExact},
	}
	for _, alg := range algs {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					_ = alg.f(inst.Tree)
				}
			}
		})
	}
}

// BenchmarkFig7Heuristics regenerates Figure 7: the I/O volume of every
// eviction policy on MinMem traversals across the memory sweep.
func BenchmarkFig7Heuristics(b *testing.B) {
	insts := benchSuite(b)
	for _, pol := range minio.Policies {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					order := traversal.MinMem(inst.Tree).Order
					m := inst.Tree.MaxMemReq()
					if _, err := minio.Simulate(inst.Tree, order, m, pol); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig8TraversalsFirstFit regenerates Figure 8: the three traversal
// algorithms under the First Fit policy.
func BenchmarkFig8TraversalsFirstFit(b *testing.B) {
	insts := benchSuite(b)
	travs := []struct {
		name string
		f    func(*tree.Tree) traversal.Result
	}{
		{"PostOrder", traversal.BestPostOrder},
		{"Liu", traversal.LiuExact},
		{"MinMem", traversal.MinMem},
	}
	for _, tv := range travs {
		b.Run(tv.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					res := tv.f(inst.Tree)
					m := inst.Tree.MaxMemReq()
					if _, err := minio.Simulate(inst.Tree, res.Order, m, minio.FirstFit); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTable2RandomTrees regenerates Table II / Figure 9: PostOrder
// versus the optimum on random-weight trees.
func BenchmarkTable2RandomTrees(b *testing.B) {
	insts := experiments.RandomWeightSuite(benchSuite(b), 2)
	var st experiments.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = experiments.RunMemoryComparison(insts).Stats()
	}
	b.ReportMetric(100*st.FractionNonOpt, "%nonopt")
	b.ReportMetric(st.MaxRatio, "maxratio")
}

// BenchmarkTheorem1Harpoon regenerates the Theorem 1 demonstration: nested
// harpoons where PostOrder is unboundedly worse than optimal.
func BenchmarkTheorem1Harpoon(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTheorem1(4, 4, 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "PO/opt@L4")
}

// BenchmarkTheorem2Reduction regenerates the Theorem 2 verification: the
// 2-Partition ⇔ MinIO ≤ S/2 equivalence on the reduction gadget.
func BenchmarkTheorem2Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTheorem2(8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Consistent {
				b.Fatalf("reduction inconsistent on %v", r.Items)
			}
		}
	}
}

// BenchmarkAblationMinMemReuse quantifies the frontier reuse of
// Algorithm 4 (DESIGN.md ablation): Explore-call counts with and without
// carrying the saved cut between memory lifts.
func BenchmarkAblationMinMemReuse(b *testing.B) {
	insts := benchSuite(b)
	var withR, withoutR int64
	var err error
	for i := 0; i < b.N; i++ {
		withR, withoutR, err = experiments.AblationMinMemReuse(insts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(withR), "calls-reuse")
	b.ReportMetric(float64(withoutR), "calls-restart")
}

// BenchmarkAblationPostorderRule quantifies Liu's child-sorting rule
// against the natural child order on random-weight trees.
func BenchmarkAblationPostorderRule(b *testing.B) {
	insts := experiments.RandomWeightSuite(benchSuite(b), 2)
	var frac, ratio float64
	for i := 0; i < b.N; i++ {
		frac, ratio = experiments.AblationPostorderRule(insts)
	}
	b.ReportMetric(100*frac, "%improved")
	b.ReportMetric(ratio, "meanratio")
}

// BenchmarkAblationBestKWindow sweeps the Best-K subset window.
func BenchmarkAblationBestKWindow(b *testing.B) {
	insts := benchSuite(b)
	for _, k := range []int{1, 2, 5, 8} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var io map[int]int64
			var err error
			for i := 0; i < b.N; i++ {
				io, err = experiments.AblationBestKWindow(insts, []int{k})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(io[k]), "totalIO")
		})
	}
}

// BenchmarkMultifrontalFactorization times the numeric factorization under
// the three traversals, with the measured memory peak as a custom metric —
// the end-to-end demonstration that the model's savings are real.
func BenchmarkMultifrontalFactorization(b *testing.B) {
	g, err := sparse.Grid3D(6, 6, 6)
	if err != nil {
		b.Fatal(err)
	}
	perm, err := ordering.NestedDissection(g, ordering.NestedDissectionOptions{LeafSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	pg, err := g.Permute(perm)
	if err != nil {
		b.Fatal(err)
	}
	a, err := factor.Laplacian(pg)
	if err != nil {
		b.Fatal(err)
	}
	parent, err := symbolic.EliminationTree(pg)
	if err != nil {
		b.Fatal(err)
	}
	counts, err := symbolic.ColumnCounts(pg, parent)
	if err != nil {
		b.Fatal(err)
	}
	n := pg.N()
	f := make([]int64, n)
	nw := make([]int64, n)
	for j := 0; j < n; j++ {
		mu := counts[j]
		f[j] = (mu - 1) * (mu - 1)
		nw[j] = mu*mu - (mu-1)*(mu-1)
	}
	for j, p := range parent {
		if p == symbolic.NoParent {
			f[j] = 0
		}
	}
	wt, err := tree.New(parent, f, nw)
	if err != nil {
		b.Fatal(err)
	}
	orders := map[string][]int{
		"postorder": symbolic.EtreePostorder(parent),
		"minmem":    tree.ReverseOrder(traversal.MinMem(wt).Order),
	}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				_, st, err := factor.Multifrontal(a, factor.Options{Order: order})
				if err != nil {
					b.Fatal(err)
				}
				peak = st.PeakLive
			}
			b.ReportMetric(float64(peak), "peak-entries")
		})
	}
}

// BenchmarkMinMemAlgorithms times the core algorithms on a single larger
// tree, the microbenchmark a library user cares about.
func BenchmarkMinMemAlgorithms(b *testing.B) {
	t, err := tree.NestedHarpoon(4, 5, 400, 1) // 4093 nodes
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MinMem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = traversal.MinMem(t)
		}
	})
	b.Run("Liu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = traversal.LiuExact(t)
		}
	})
	b.Run("PostOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = traversal.BestPostOrder(t)
		}
	})
}
