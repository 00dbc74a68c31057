package ordering_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ordering"
	"repro/internal/sparse"
)

// AMD returns exactly the reference's permutation on every matrix the
// repository orders: the default, smoke and Section VI suite manifests,
// symmetrized as the pipeline does, and R-MAT patterns up to n = 5000,
// among them the benchmark corpus's three R-MAT matrices (seeds 7006–7008,
// four edges per node).
func TestAMDMatchesReference(t *testing.T) {
	type input struct {
		name string
		m    *sparse.Matrix
	}
	var inputs []input
	manifests := [][]corpus.Entry{corpus.DefaultManifest(), corpus.SmokeManifest()}
	for _, scale := range []string{"small", "medium", "full"} {
		es, err := corpus.SuiteManifest(scale)
		if err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, es)
	}
	for _, es := range manifests {
		for _, e := range es {
			m, err := e.Generate()
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{e.Name, m.Symmetrize()})
		}
	}
	rmat := func(seed int64, n, epn int) {
		m, err := sparse.RMAT(rand.New(rand.NewSource(seed)), n, epn)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat-%d-e%d-s%d", n, epn, seed), m.Symmetrize()})
	}
	for k, n := range []int{1500, 3000, 5000} {
		rmat(7006+int64(k), n, 4)
	}
	for seed := int64(1); seed <= 12; seed++ {
		n := []int{100, 400, 1000, 2500, 5000}[seed%5]
		rmat(seed, n, 2+int(seed%7))
	}
	for _, in := range inputs {
		got, err := ordering.AMD(in.m)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		want, err := ordering.RefAMD(in.m)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: AMD permutation differs from the reference", in.name)
		}
	}
}
