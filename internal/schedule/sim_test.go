package schedule_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/minio"
	"repro/internal/ordering"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// ---------------------------------------------------------------------------
// Legacy reference accounting, preserved verbatim from the seed revision of
// traversal.Peak / traversal.PeakBottomUp / minio.Simulate. The production
// code now delegates to schedule.Simulate; these copies keep the
// differential tests honest — the unified simulator must stay bit-identical
// to the original per-package loops.
// ---------------------------------------------------------------------------

// legacyPeak is the seed traversal.Peak accounting.
func legacyPeak(t *tree.Tree, order []int) int64 {
	readySum := t.F(t.Root())
	peak := int64(0)
	for _, i := range order {
		need := readySum + t.N(i) + t.ChildFileSum(i)
		if need > peak {
			peak = need
		}
		readySum += t.ChildFileSum(i) - t.F(i)
	}
	return peak
}

// legacyPeakBottomUp is the seed traversal.PeakBottomUp accounting.
func legacyPeakBottomUp(t *tree.Tree, order []int) int64 {
	var resident int64
	peak := int64(0)
	for _, i := range order {
		need := resident + t.F(i) + t.N(i)
		if need > peak {
			peak = need
		}
		resident += t.F(i) - t.ChildFileSum(i)
	}
	return peak
}

// legacySimulate is the seed minio.Simulate eviction accounting. Victim
// selection goes through the schedule Evictor (a verbatim port, itself
// pinned by the minio policy scenario tests); everything else — the
// resident-set bookkeeping, staging, I/O tally — is the original loop.
func legacySimulate(t *testing.T, tr *tree.Tree, order []int, m int64, ev schedule.Evictor) (int64, []schedule.WriteEvent) {
	t.Helper()
	p := tr.Len()
	pos := make([]int, p)
	for step, v := range order {
		pos[v] = step
	}
	// resident files ordered latest consumer first, as in the seed fileSet.
	var resident []int
	insert := func(node int) {
		i := 0
		for i < len(resident) && pos[resident[i]] > pos[node] {
			i++
		}
		resident = append(resident, 0)
		copy(resident[i+1:], resident[i:])
		resident[i] = node
	}
	removeNode := func(node int) {
		for i, v := range resident {
			if v == node {
				resident = append(resident[:i], resident[i+1:]...)
				return
			}
		}
		t.Fatalf("legacy: removing absent file %d", node)
	}
	insert(tr.Root())
	residentSum := tr.F(tr.Root())
	onDisk := make([]bool, p)
	var io int64
	var writes []schedule.WriteEvent
	for step, j := range order {
		if !onDisk[j] {
			removeNode(j)
			residentSum -= tr.F(j)
		}
		ioReq := residentSum + tr.MemReq(j) - m
		if ioReq > 0 {
			s := make([]int, 0, len(resident))
			for _, v := range resident {
				if tr.F(v) > 0 {
					s = append(s, v)
				}
			}
			victims, err := ev.SelectVictims(tr, s, ioReq)
			if err != nil {
				t.Fatalf("legacy: step %d: %v", step, err)
			}
			for _, v := range victims {
				removeNode(v)
				residentSum -= tr.F(v)
				onDisk[v] = true
				io += tr.F(v)
				writes = append(writes, schedule.WriteEvent{Step: step, Node: v, Size: tr.F(v)})
			}
		}
		if onDisk[j] {
			onDisk[j] = false
		}
		residentSum += tr.ChildFileSum(j)
		for k := 0; k < tr.NumChildren(j); k++ {
			insert(tr.Child(j, k))
		}
		if residentSum > m {
			t.Fatalf("legacy: accounting error at step %d", step)
		}
	}
	return io, writes
}

// ---------------------------------------------------------------------------
// Instance generators: random trees plus assembly trees built from the
// internal/sparse generators (the steps the corpus pipeline runs).
// ---------------------------------------------------------------------------

func randomTree(t *testing.T, seed int64, nodes int) *tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 15, MaxN: 6, Attach: tree.AttachKind(seed % 3)})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sparseTrees builds assembly trees from the internal/sparse generators:
// a 2D grid Laplacian and a random symmetric pattern, minimum-degree
// ordered and amalgamated.
func sparseTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	var out []*tree.Tree
	specs := []func() (*sparse.Matrix, error){
		func() (*sparse.Matrix, error) { return sparse.Grid2D(7, 7) },
		func() (*sparse.Matrix, error) {
			m, err := sparse.RandomSymmetric(rand.New(rand.NewSource(11)), 60, 2.5)
			if err != nil {
				return nil, err
			}
			return m.Symmetrize(), nil
		},
	}
	for _, gen := range specs {
		m, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		perm, err := ordering.MinimumDegree(m)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := symbolic.AssemblyTree(pm, symbolic.AssemblyOptions{Relax: 2})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Tree)
	}
	return out
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	trees := sparseTrees(t)
	for seed := int64(0); seed < 25; seed++ {
		trees = append(trees, randomTree(t, seed, 4+int(seed%18)))
	}
	return trees
}

// ---------------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------------

// The unified simulator's peak must be bit-identical to the legacy in-core
// accounting, and to the delegating traversal.Peak, in both orientations.
func TestSimulateMatchesLegacyPeak(t *testing.T) {
	for _, tr := range testTrees(t) {
		order := tr.TopDown()
		sim, err := schedule.Simulate(tr, order, schedule.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPeak(tr, order); sim.Peak != want {
			t.Fatalf("peak %d != legacy %d (p=%d)", sim.Peak, want, tr.Len())
		}
		if sim.IO != 0 || sim.Writes != nil {
			t.Fatalf("in-core simulation produced I/O: %+v", sim)
		}
		got, err := traversal.Peak(tr, order)
		if err != nil {
			t.Fatal(err)
		}
		if got != sim.Peak {
			t.Fatalf("traversal.Peak %d != simulator %d", got, sim.Peak)
		}
		// Bottom-up orientation and the Section III-C reversal lemma.
		bu := tree.ReverseOrder(order)
		simBU, err := schedule.Simulate(tr, bu, schedule.Config{Direction: schedule.BottomUp})
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPeakBottomUp(tr, bu); simBU.Peak != want {
			t.Fatalf("bottom-up peak %d != legacy %d", simBU.Peak, want)
		}
	}
}

// The unified simulator's eviction replay must be bit-identical to the
// legacy minio accounting — same I/O volume and same write schedule — for
// every policy, and the delegating minio.Simulate must agree.
func TestSimulateMatchesLegacyEviction(t *testing.T) {
	for _, tr := range testTrees(t) {
		order := traversal.BestPostOrder(tr).Order
		opt := traversal.MinMem(tr).Memory
		lo := tr.MaxMemReq()
		for _, m := range []int64{lo, (lo + opt) / 2} {
			for i, name := range schedule.EvictionPolicyNames() {
				ev, err := schedule.EvictorByName(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := schedule.Simulate(tr, order, schedule.Config{Memory: m, Evict: ev})
				if err != nil {
					t.Fatalf("%s M=%d: %v", name, m, err)
				}
				wantIO, wantWrites := legacySimulate(t, tr, order, m, ev)
				if sim.IO != wantIO {
					t.Fatalf("%s M=%d: IO %d != legacy %d", name, m, sim.IO, wantIO)
				}
				if len(sim.Writes) != len(wantWrites) {
					t.Fatalf("%s M=%d: %d writes != legacy %d", name, m, len(sim.Writes), len(wantWrites))
				}
				for k := range wantWrites {
					if sim.Writes[k] != wantWrites[k] {
						t.Fatalf("%s M=%d: write %d = %+v != legacy %+v", name, m, k, sim.Writes[k], wantWrites[k])
					}
				}
				if sim.Peak > m {
					t.Fatalf("%s M=%d: peak %d exceeds budget", name, m, sim.Peak)
				}
				// The delegating minio.Simulate returns the same result.
				legacyAPI, err := minio.Simulate(tr, order, m, minio.Policies[i])
				if err != nil {
					t.Fatal(err)
				}
				if legacyAPI.IO != sim.IO || len(legacyAPI.Writes) != len(sim.Writes) {
					t.Fatalf("%s M=%d: minio.Simulate disagrees with simulator", name, m)
				}
			}
		}
	}
}

// Every simulated write schedule must pass the independent Algorithm 2
// checker (minio.CheckOutOfCore keeps its own accounting) with the same
// I/O volume.
func TestSimulateAgainstAlgorithm2Checker(t *testing.T) {
	for _, tr := range testTrees(t) {
		order := traversal.MinMem(tr).Order
		m := tr.MaxMemReq()
		for _, name := range schedule.EvictionPolicyNames() {
			ev, err := schedule.EvictorByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := schedule.Simulate(tr, order, schedule.Config{Memory: m, Evict: ev})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res := minio.Result{IO: sim.IO, Writes: sim.Writes}
			io, err := minio.CheckOutOfCore(tr, order, res.Tau(tr.Len()), m)
			if err != nil {
				t.Fatalf("%s: checker rejected: %v", name, err)
			}
			if io != sim.IO {
				t.Fatalf("%s: checker IO %d != simulated %d", name, io, sim.IO)
			}
		}
	}
}

// Feasibility mode: a finite budget with no evictor accepts exactly the
// orders whose peak fits.
func TestSimulateFeasibility(t *testing.T) {
	tr := randomTree(t, 7, 12)
	order := traversal.MinMem(tr).Order
	peak, err := traversal.Peak(tr, order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: peak}); err != nil {
		t.Fatalf("feasible order rejected: %v", err)
	}
	if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: peak - 1}); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestSimulateRejects(t *testing.T) {
	tr := randomTree(t, 3, 9)
	order := tr.TopDown()
	if _, err := schedule.Simulate(tr, order[1:], schedule.Config{}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := schedule.Simulate(tr, order, schedule.Config{Direction: schedule.BottomUp}); err == nil {
		t.Fatal("top-down order accepted as bottom-up")
	}
	if _, err := schedule.Simulate(tr, tree.ReverseOrder(order), schedule.Config{Direction: schedule.BottomUp, Evict: schedule.LSNF()}); err == nil {
		t.Fatal("bottom-up eviction accepted")
	}
	// Budget below the largest MemReq: no policy can free enough.
	if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: tr.MaxMemReq() - 1, Evict: schedule.LSNF()}); err == nil {
		t.Fatal("budget below MaxMemReq accepted")
	}
	// A vacuous Best-K window is rejected at construction time with the
	// typed error — it can no longer reach SelectVictims.
	for _, window := range []int{0, -1, schedule.MaxBestKWindow + 1} {
		_, err := schedule.BestK(window)
		var wre *schedule.WindowRangeError
		if !errors.As(err, &wre) || wre.Window != window {
			t.Fatalf("Best-K window %d: error %v, want *WindowRangeError", window, err)
		}
	}
	if _, err := schedule.EvictorByName("best-k", 21); err == nil {
		t.Fatal("Best-K window 21 accepted")
	}
}

// Config.Profile: the simulator's hill–valley decomposition (computed by
// the shared hillvalley kernel) is canonical, starts at the peak, and on
// the Liu-optimal bottom-up traversal reproduces Liu's certificate
// profile exactly.
func TestSimulateProfile(t *testing.T) {
	for _, tr := range testTrees(t) {
		res := traversal.LiuExact(tr)
		bu := tree.ReverseOrder(res.Order) // back to the in-tree view
		sim, err := schedule.Simulate(tr, bu, schedule.Config{Direction: schedule.BottomUp, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := traversal.LiuProfile(tr); !reflect.DeepEqual(sim.Profile, want) {
			t.Fatalf("replay profile %v != Liu certificate %v", sim.Profile, want)
		}
		if sim.Profile[0].Hill != sim.Peak {
			t.Fatalf("first hill %d != peak %d", sim.Profile[0].Hill, sim.Peak)
		}
		// Top-down: the profile is canonical and anchored at the peak.
		td, err := schedule.Simulate(tr, res.Order, schedule.Config{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if td.Profile[0].Hill != td.Peak {
			t.Fatalf("top-down first hill %d != peak %d", td.Profile[0].Hill, td.Peak)
		}
		for i := 1; i < len(td.Profile); i++ {
			if td.Profile[i].Hill > td.Profile[i-1].Hill || td.Profile[i].Valley < td.Profile[i-1].Valley {
				t.Fatalf("top-down profile not canonical: %v", td.Profile)
			}
		}
		// Without the flag the profile stays nil.
		plain, err := schedule.Simulate(tr, res.Order, schedule.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Profile != nil {
			t.Fatalf("profile recorded without Config.Profile: %v", plain.Profile)
		}
	}
}
