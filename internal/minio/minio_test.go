package minio

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schedule"
	"repro/internal/traversal"
	"repro/internal/tree"
)

func randomTree(seed int64, nodes int, kind tree.AttachKind) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 12, MaxN: 4, Attach: kind})
	if err != nil {
		panic(err)
	}
	return tr
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		LSNF: "LSNF", FirstFit: "First Fit", BestFit: "Best Fit",
		FirstFill: "First Fill", BestFill: "Best Fill", BestKCombination: "Best K Comb.",
	}
	for p, w := range want {
		if p.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), w)
		}
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
	if len(Policies) != 6 {
		t.Fatalf("Policies has %d entries, want 6", len(Policies))
	}
}

// With memory equal to the in-core optimum, no policy performs any I/O.
func TestNoIOAtOptimalMemory(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tr := randomTree(seed, 4+int(seed%20), tree.AttachKind(seed%3))
		res := traversal.MinMem(tr)
		for _, pol := range Policies {
			sim, err := Simulate(tr, res.Order, res.Memory, pol)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol, err)
			}
			if sim.IO != 0 {
				t.Fatalf("seed %d %v: IO=%d at optimal memory", seed, pol, sim.IO)
			}
		}
	}
}

// Every simulated schedule must pass the Algorithm 2 checker with the same
// I/O volume.
func TestSimulateAgainstChecker(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tr := randomTree(seed, 5+int(seed%16), tree.AttachKind(seed%3))
		order := traversal.BestPostOrder(tr).Order
		maxReq := tr.MaxMemReq()
		opt := traversal.MinMem(tr).Memory
		for _, m := range []int64{maxReq, (maxReq + opt) / 2} {
			for _, pol := range Policies {
				sim, err := Simulate(tr, order, m, pol)
				if err != nil {
					t.Fatalf("seed %d %v M=%d: %v", seed, pol, m, err)
				}
				io, err := CheckOutOfCore(tr, order, sim.Tau(tr.Len()), m)
				if err != nil {
					t.Fatalf("seed %d %v M=%d: checker rejected: %v", seed, pol, m, err)
				}
				if io != sim.IO {
					t.Fatalf("seed %d %v M=%d: checker IO %d != simulated %d", seed, pol, m, io, sim.IO)
				}
			}
		}
	}
}

// Heuristic I/O is sandwiched between the divisible lower bound (same
// traversal) and the trivial upper bound Σ f.
func TestHeuristicsBounded(t *testing.T) {
	for seed := int64(50); seed < 80; seed++ {
		tr := randomTree(seed, 6+int(seed%14), tree.AttachKind(seed%3))
		order := traversal.MinMem(tr).Order
		m := tr.MaxMemReq()
		lb, err := LowerBoundDivisible(tr, order, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies {
			sim, err := Simulate(tr, order, m, pol)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol, err)
			}
			if sim.IO < lb {
				t.Fatalf("seed %d %v: IO %d below divisible bound %d", seed, pol, sim.IO, lb)
			}
			if sim.IO > tr.TotalF() {
				t.Fatalf("seed %d %v: IO %d above total file volume %d", seed, pol, sim.IO, tr.TotalF())
			}
		}
	}
}

// The exact fixed-order solver is at most the heuristics and at least the
// divisible bound; the free-order solver is at most the fixed-order one.
func TestBruteForceOrdering(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		tr := randomTree(seed, 4+int(seed%7), tree.AttachKind(seed%3))
		order := traversal.BestPostOrder(tr).Order
		m := tr.MaxMemReq()
		exactFixed, err := BruteForceMinIOFixedOrder(tr, order, m)
		if err != nil {
			t.Fatal(err)
		}
		exactFree, err := BruteForceMinIO(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		if exactFree > exactFixed {
			t.Fatalf("seed %d: free-order optimum %d worse than fixed-order %d", seed, exactFree, exactFixed)
		}
		lb, err := LowerBoundDivisible(tr, order, m)
		if err != nil {
			t.Fatal(err)
		}
		if exactFixed < lb {
			t.Fatalf("seed %d: exact %d below divisible bound %d", seed, exactFixed, lb)
		}
		for _, pol := range Policies {
			sim, err := Simulate(tr, order, m, pol)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol, err)
			}
			if sim.IO < exactFixed {
				t.Fatalf("seed %d %v: heuristic IO %d beats exact fixed-order %d", seed, pol, sim.IO, exactFixed)
			}
		}
	}
}

// Theorem 2: the reduction instance has MinIO ≤ S/2 iff 2-Partition is
// solvable. Verified with the exact solver on random small instances.
func TestTheorem2Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := 0
	yes, no := 0, 0
	for cases < 40 {
		n := 2 + rng.Intn(4)
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = 1 + rng.Int63n(9)
			sum += a[i]
		}
		if sum%2 != 0 {
			continue
		}
		cases++
		inst, err := tree.NewTwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		io, err := BruteForceMinIO(inst.Tree, inst.Memory)
		if err != nil {
			t.Fatal(err)
		}
		solvable := SolveTwoPartition(a)
		if solvable {
			yes++
			if io > inst.IOBound {
				t.Fatalf("a=%v solvable but MinIO=%d > bound %d", a, io, inst.IOBound)
			}
		} else {
			no++
			if io <= inst.IOBound {
				t.Fatalf("a=%v unsolvable but MinIO=%d ≤ bound %d", a, io, inst.IOBound)
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate test distribution: yes=%d no=%d", yes, no)
	}
}

// On the reduction gadget, executing T_big right after the root with exactly
// the right eviction set achieves IO = S/2 when a partition exists.
func TestTheorem2WitnessSchedule(t *testing.T) {
	a := []int64{3, 1, 4, 2, 6} // sum 16, half 8 = 6+2 = 4+3+1
	if !SolveTwoPartition(a) {
		t.Fatal("test instance should be solvable")
	}
	inst, err := tree.NewTwoPartition(a)
	if err != nil {
		t.Fatal(err)
	}
	io, err := BruteForceMinIO(inst.Tree, inst.Memory)
	if err != nil {
		t.Fatal(err)
	}
	if io != inst.IOBound {
		t.Fatalf("optimal IO = %d, want exactly %d", io, inst.IOBound)
	}
}

func TestSolveTwoPartition(t *testing.T) {
	cases := []struct {
		a    []int64
		want bool
	}{
		{[]int64{1, 1}, true},
		{[]int64{3, 1}, false},
		{[]int64{1, 2, 3}, true},
		{[]int64{2, 2, 3}, false}, // odd sum
		{[]int64{5, 5, 4, 3, 2, 1}, true},
		{[]int64{8, 1, 1}, false},
		{[]int64{0, 2}, false}, // non-positive rejected
	}
	for _, c := range cases {
		if got := SolveTwoPartition(c.a); got != c.want {
			t.Fatalf("SolveTwoPartition(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestCheckOutOfCoreRejects(t *testing.T) {
	tr := randomTree(3, 8, tree.AttachUniform)
	order := traversal.BestPostOrder(tr).Order
	m := tr.MaxMemReq()
	tau := make([]int, tr.Len())
	for i := range tau {
		tau[i] = -1
	}
	// Writing a file before it is produced must fail.
	var leaf int
	for i := 0; i < tr.Len(); i++ {
		if tr.IsLeaf(i) && i != tr.Root() {
			leaf = i
			break
		}
	}
	tau[leaf] = 0 // parent cannot have executed before step 0 unless it is the root
	if tr.Parent(leaf) != tr.Root() {
		if _, err := CheckOutOfCore(tr, order, tau, m); err == nil {
			t.Fatal("premature write accepted")
		}
	}
	// Writing after consumption must fail.
	tau[leaf] = tr.Len() - 1
	sigma := make([]int, tr.Len())
	for s, v := range order {
		sigma[v] = s
	}
	if sigma[leaf] < tr.Len()-1 {
		if _, err := CheckOutOfCore(tr, order, tau, m); err == nil {
			t.Fatal("write after consumption accepted")
		}
	}
	// Bad tau length.
	if _, err := CheckOutOfCore(tr, order, []int{-1}, m); err == nil {
		t.Fatal("short tau accepted")
	}
	// Bad order.
	if _, err := CheckOutOfCore(tr, order[1:], make([]int, tr.Len()), m); err == nil {
		t.Fatal("short order accepted")
	}
	// Memory too small with no writes scheduled must fail.
	for i := range tau {
		tau[i] = -1
	}
	opt := traversal.MinMem(tr).Memory
	if opt > m {
		if _, err := CheckOutOfCore(tr, order, tau, m); err == nil {
			t.Fatal("overflowing schedule accepted")
		}
	}
}

func TestSimulateRejects(t *testing.T) {
	tr := randomTree(5, 10, tree.AttachPreferential)
	order := traversal.MinMem(tr).Order
	// Invalid order.
	if _, err := Simulate(tr, order[1:], tr.MaxMemReq(), LSNF); err == nil {
		t.Fatal("short order accepted")
	}
	// Memory below MaxMemReq is infeasible for any policy.
	for _, pol := range Policies {
		if _, err := Simulate(tr, order, tr.MaxMemReq()-1, pol); err == nil {
			t.Fatalf("%v accepted M below MaxMemReq", pol)
		}
	}
	// Unknown policy.
	if _, err := Simulate(tr, order, tr.TotalF()*2, Policy(42)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBruteForceLimits(t *testing.T) {
	tr := randomTree(9, BruteForceLimit+1, tree.AttachUniform)
	if _, err := BruteForceMinIO(tr, tr.TotalF()); err == nil {
		t.Fatal("oversized tree accepted")
	}
	if _, err := BruteForceMinIOFixedOrder(tr, tr.TopDown(), tr.TotalF()); err == nil {
		t.Fatal("oversized tree accepted (fixed order)")
	}
	small := randomTree(9, 6, tree.AttachUniform)
	if _, err := BruteForceMinIO(small, small.MaxMemReq()-1); err == nil {
		t.Fatal("infeasible memory accepted")
	}
	if _, err := BruteForceMinIOFixedOrder(small, small.TopDown(), small.MaxMemReq()-1); err == nil {
		t.Fatal("infeasible memory accepted (fixed order)")
	}
	if _, err := BruteForceMinIOFixedOrder(small, small.TopDown()[1:], small.TotalF()); err == nil {
		t.Fatal("bad order accepted (fixed order)")
	}
}

// Property: on unit-size files MinIO is "polynomial" in the sense that the
// divisible bound matches the exact fixed-order optimum (files cannot be
// split any further).
func TestQuickUnitFilesDivisibleTight(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64, p uint8) bool {
		nodes := 3 + int(p%8)
		rng := rand.New(rand.NewSource(seed))
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 1, MaxN: 0})
		if err != nil {
			return false
		}
		order := traversal.BestPostOrder(tr).Order
		m := tr.MaxMemReq()
		lb, err1 := LowerBoundDivisible(tr, order, m)
		ex, err2 := BruteForceMinIOFixedOrder(tr, order, m)
		return err1 == nil && err2 == nil && lb == ex
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: more memory never increases the exact MinIO volume, and the
// simulated LSNF volume equals the divisible bound when all files have the
// same size.
func TestQuickMonotoneInMemory(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(37))}
	prop := func(seed int64, p uint8) bool {
		nodes := 3 + int(p%7)
		tr := randomTree(seed, nodes, tree.AttachUniform)
		m0 := tr.MaxMemReq()
		io0, err0 := BruteForceMinIO(tr, m0)
		io1, err1 := BruteForceMinIO(tr, m0+5)
		return err0 == nil && err1 == nil && io1 <= io0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Tau round-trips write events.
func TestTauRoundTrip(t *testing.T) {
	tr := randomTree(11, 12, tree.AttachChainy)
	order := traversal.BestPostOrder(tr).Order
	sim, err := Simulate(tr, order, tr.MaxMemReq(), LSNF)
	if err != nil {
		t.Fatal(err)
	}
	tau := sim.Tau(tr.Len())
	cnt := 0
	for _, ti := range tau {
		if ti >= 0 {
			cnt++
		}
	}
	if cnt != len(sim.Writes) {
		t.Fatalf("tau has %d writes, events %d", cnt, len(sim.Writes))
	}
}

// SimulateWithWindow takes the window literally: an explicit 0 (or any
// out-of-range value) is rejected with the schedule package's typed
// error rather than silently mapped to the default, and the window is
// ignored for the non-subset policies.
func TestSimulateWithWindowValidation(t *testing.T) {
	tr, err := tree.NestedHarpoon(3, 1, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	order := tr.TopDown()
	m := tr.MaxMemReq()
	for _, window := range []int{0, -2, schedule.MaxBestKWindow + 1} {
		_, err := SimulateWithWindow(tr, order, m, BestKCombination, window)
		var wre *schedule.WindowRangeError
		if !errors.As(err, &wre) || wre.Window != window {
			t.Fatalf("window %d: error %v, want *schedule.WindowRangeError", window, err)
		}
	}
	// Non-subset policies ignore the window entirely.
	if _, err := SimulateWithWindow(tr, order, m, LSNF, 0); err != nil {
		t.Fatalf("LSNF with window 0: %v", err)
	}
}
