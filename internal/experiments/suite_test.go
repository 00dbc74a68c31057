package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/schedule"
	"repro/internal/traversal"
)

// perMatrix is the number of instances Section VI's recipe makes of one
// matrix: its orderings × its relax levels.
var perMatrix = len(suiteOptions.Orderings) * len(suiteOptions.Relax)

func manifest(t *testing.T, scale string) []corpus.Entry {
	t.Helper()
	entries, err := corpus.SuiteManifest(scale)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func smallSuite(t *testing.T) []schedule.Instance {
	t.Helper()
	insts, err := Suite(manifest(t, "small"))
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// checkSuite builds scale's suite and checks its size, its names and the
// sha256 of its concatenated tree digests, taken in suite order. The pinned
// digests were recorded from the serial builder the pipeline replaced, so
// they also pin that concurrent per-matrix workers change no tree and no
// position. It returns the manifest and the instances.
func checkSuite(t *testing.T, scale string, matrices int, digest string) ([]corpus.Entry, []schedule.Instance) {
	t.Helper()
	entries := manifest(t, scale)
	insts, err := Suite(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != matrices || len(insts) != matrices*perMatrix {
		t.Fatalf("%s suite: %d matrices and %d instances, want %d and %d", scale, len(entries), len(insts), matrices, matrices*perMatrix)
	}
	seen := map[string]bool{}
	h := sha256.New()
	for i, inst := range insts {
		if seen[inst.Name] {
			t.Fatalf("duplicate instance name %s", inst.Name)
		}
		seen[inst.Name] = true
		if !strings.HasPrefix(inst.Name, entries[i/perMatrix].Name+"/") {
			t.Fatalf("instance %d is %s, want a tree of %s", i, inst.Name, entries[i/perMatrix].Name)
		}
		d := inst.Tree.Digest()
		h.Write(d[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		t.Fatalf("%s suite digest %s, want %s", scale, got, digest)
	}
	return entries, insts
}

func TestSuiteSmall(t *testing.T) {
	const digest = "e4a442de68321f62027e791f69f06708e82f80ed503722b1978a12c22aa26f9a"
	entries, insts := checkSuite(t, "small", 3, digest)
	for i, inst := range insts {
		m, err := entries[i/perMatrix].Generate()
		if err != nil {
			t.Fatal(err)
		}
		if inst.Tree.Len() < 1 || inst.Tree.Len() > m.N()+1 {
			t.Fatalf("%s: tree has %d nodes for n=%d", inst.Name, inst.Tree.Len(), m.N())
		}
		// Every tree must be traversable: the three algorithms agree.
		mm := traversal.MinMem(inst.Tree)
		liu := traversal.LiuExact(inst.Tree)
		po := traversal.BestPostOrder(inst.Tree)
		if mm.Memory != liu.Memory {
			t.Fatalf("%s: MinMem %d != Liu %d", inst.Name, mm.Memory, liu.Memory)
		}
		if po.Memory < mm.Memory {
			t.Fatalf("%s: postorder below optimal", inst.Name)
		}
	}
	// Determinism: a second build yields identical trees.
	again := smallSuite(t)
	for i := range insts {
		if insts[i].Name != again[i].Name || insts[i].Tree.Digest() != again[i].Tree.Digest() {
			t.Fatalf("%s: suite generation is not deterministic", insts[i].Name)
		}
	}
}

func TestSuiteMedium(t *testing.T) {
	checkSuite(t, "medium", 8, "05c7772fd3159450f57d4d4f77421093d6614614218b90ecdbdd46bb59d5f870")
}

func TestSuiteFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	entries, _ := checkSuite(t, "full", 28, "b8ae221f4f318fc282419691ca5f9187f89efae3d7b30f28111648b15b06ad65")
	// Sizes span the intended range and every family is present.
	families := map[corpus.Family]bool{}
	maxN := 0
	for _, e := range entries {
		families[e.Family] = true
		m, err := e.Generate()
		if err != nil {
			t.Fatal(err)
		}
		maxN = max(maxN, m.N())
	}
	if len(families) != 5 {
		t.Fatalf("families missing: %v", families)
	}
	if maxN < 10000 {
		t.Fatalf("largest matrix only n=%d", maxN)
	}
}

func TestRelaxMonotonicallyCoarsens(t *testing.T) {
	insts := smallSuite(t)
	// Each matrix/ordering's trees come in ascending relax order; tree size
	// must not grow with relax.
	relaxes := len(suiteOptions.Relax)
	for i := 1; i < len(insts); i++ {
		if i%relaxes != 0 && insts[i].Tree.Len() > insts[i-1].Tree.Len() {
			t.Fatalf("%s grew the tree (%d > %d)", insts[i].Name, insts[i].Tree.Len(), insts[i-1].Tree.Len())
		}
	}
}

func TestRandomWeightSuite(t *testing.T) {
	insts := smallSuite(t)
	rw := RandomWeightSuite(insts[:4], 3)
	if len(rw) != 12 {
		t.Fatalf("random suite has %d instances, want 12", len(rw))
	}
	for i, inst := range rw {
		base := insts[i/3]
		if inst.Tree.Len() != base.Tree.Len() {
			t.Fatalf("%s: shape changed", inst.Name)
		}
		p := inst.Tree.Len()
		for k := 0; k < p; k++ {
			if inst.Tree.F(k) < 1 || inst.Tree.F(k) > int64(p) {
				t.Fatalf("%s: f out of range", inst.Name)
			}
		}
	}
	// Determinism.
	rw2 := RandomWeightSuite(insts[:4], 3)
	for i := range rw {
		a, b := rw[i].Tree.FVector(), rw2[i].Tree.FVector()
		for k := range a {
			if a[k] != b[k] {
				t.Fatal("random weight suite not deterministic")
			}
		}
	}
}
