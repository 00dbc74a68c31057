package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// manifests returns every compiled-in manifest: the real-matrix corpus, its
// smoke subset and Section VI's three suites.
func manifests(t *testing.T) [][]Entry {
	t.Helper()
	out := [][]Entry{DefaultManifest(), SmokeManifest()}
	for _, scale := range []string{"small", "medium", "full"} {
		entries, err := SuiteManifest(scale)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, entries)
	}
	if _, err := SuiteManifest("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
	return out
}

// TestManifestGeneratorsWork exercises every fallback generator in every
// manifest and sanity-checks the symmetrized pattern feeding the pipeline.
func TestManifestGeneratorsWork(t *testing.T) {
	var all []Entry
	for _, entries := range manifests(t) {
		all = append(all, entries...)
	}
	for _, e := range all {
		m, source, err := e.Load("")
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if source != "generator" {
			t.Fatalf("%s: want generator provenance with empty dir, got %q", e.Name, source)
		}
		if m.N() < 2 {
			t.Fatalf("%s: implausibly small matrix n=%d", e.Name, m.N())
		}
		s := m.Symmetrize()
		if s.N() != m.N() {
			t.Fatalf("%s: symmetrize changed n", e.Name)
		}
	}
}

// TestManifestNamesUniqueAndFamilied pins the invariants the matrices
// experiment relies on: unique names and a family per entry.
func TestManifestNamesUniqueAndFamilied(t *testing.T) {
	for _, entries := range manifests(t) {
		fam := Families(entries)
		if len(fam) != len(entries) {
			t.Fatalf("duplicate manifest names: %d entries, %d unique", len(entries), len(fam))
		}
		for _, e := range entries {
			switch e.Family {
			case FamilyGrid2D, FamilyGrid3D, FamilyPowerLaw, FamilyBanded, FamilyRandom:
			default:
				t.Fatalf("%s: unknown family %q", e.Name, e.Family)
			}
		}
	}
}

// TestLoadPrefersMirroredFile writes a tiny MatrixMarket file into a corpus
// dir and checks Load picks it over the generator.
func TestLoadPrefersMirroredFile(t *testing.T) {
	dir := t.TempDir()
	mtx := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 4\n1 1\n2 2\n3 3\n3 1\n"
	if err := os.WriteFile(filepath.Join(dir, "smoke-band.mtx"), []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	e := SmokeManifest()[3]
	if e.Name != "smoke-band" {
		t.Fatalf("manifest layout changed: got %q", e.Name)
	}
	m, source, err := e.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if source != "file" || m.N() != 3 {
		t.Fatalf("want mirrored 3×3 file, got source=%q n=%d", source, m.N())
	}
	if _, source, err = e.Load(""); err != nil || source != "generator" {
		t.Fatalf("empty dir should fall back to generator: %q %v", source, err)
	}
}

// TestLoadRefusesUnreadableFile checks that only a missing file falls back
// to the generator: a <Name>.mtx that exists but cannot be read (here a
// directory) is an error, not a silent stand-in.
func TestLoadRefusesUnreadableFile(t *testing.T) {
	dir := t.TempDir()
	e := SmokeManifest()[0]
	if err := os.Mkdir(filepath.Join(dir, e.Name+".mtx"), 0o755); err != nil {
		t.Fatal(err)
	}
	if m, source, err := e.Load(dir); err == nil {
		t.Fatalf("unreadable mirror accepted: source=%q n=%d", source, m.N())
	}
}

// TestGenerateRefusesNonIntegralArg checks that only the random kind takes
// a fractional Arg; the integer kinds refuse one rather than truncate it.
func TestGenerateRefusesNonIntegralArg(t *testing.T) {
	for _, g := range []GenSpec{
		{Kind: "band", N: 50, Arg: 2.5},
		{Kind: "rmat", N: 50, Arg: 3.5, Seed: 1},
		{Kind: "scalefree", N: 50, Arg: 1.5, Seed: 1},
	} {
		if _, err := (Entry{Name: "frac", Gen: g}).Generate(); err == nil {
			t.Fatalf("%s with Arg %v accepted", g.Kind, g.Arg)
		}
	}
	if _, err := (Entry{Name: "frac", Gen: GenSpec{Kind: "random", N: 50, Arg: 2.5, Seed: 1}}).Generate(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineOrderAndShape streams the smoke manifest and checks instance
// names arrive in deterministic manifest × ordering × relax order with
// sensible trees, despite concurrent per-matrix workers.
func TestPipelineOrderAndShape(t *testing.T) {
	entries := SmokeManifest()
	p, err := NewPipeline(entries, PipelineOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var want []string
	for _, e := range entries {
		for _, ord := range OrderingNames() {
			for _, r := range []int{1, 4} {
				want = append(want, fmt.Sprintf("%s/%s/r%d", e.Name, ord, r))
			}
		}
	}
	fam := Families(entries)
	for i, name := range want {
		inst, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stream ended early at %d/%d", i, len(want))
		}
		if inst.Name != name {
			t.Fatalf("instance %d: got %q, want %q", i, inst.Name, name)
		}
		if inst.Tree == nil || inst.Tree.Len() < 1 {
			t.Fatalf("%s: empty tree", name)
		}
		if inst.Family != fam[inst.Matrix] || inst.Source != "generator" {
			t.Fatalf("%s: bad provenance family=%q source=%q", name, inst.Family, inst.Source)
		}
	}
	if _, ok, err := p.Next(); ok || err != nil {
		t.Fatalf("want clean exhaustion, got ok=%v err=%v", ok, err)
	}
}

// TestPipelineSubsetOptions checks ordering/relax subsetting and option
// validation.
func TestPipelineSubsetOptions(t *testing.T) {
	p, err := NewPipeline(SmokeManifest()[:1], PipelineOptions{Orderings: []string{"amd"}, Relax: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	inst, ok, err := p.Next()
	if err != nil || !ok {
		t.Fatalf("next: ok=%v err=%v", ok, err)
	}
	if inst.Name != "smoke-grid2d/amd/r2" {
		t.Fatalf("got %q", inst.Name)
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("want single instance")
	}
	if _, err := NewPipeline(SmokeManifest(), PipelineOptions{Orderings: []string{"bogus"}}); err == nil {
		t.Fatal("want unknown-ordering error")
	}
	if _, err := NewPipeline(SmokeManifest(), PipelineOptions{Relax: []int{-1}}); err == nil {
		t.Fatal("want negative-relax error")
	}
}

// TestPipelineEarlyClose abandons a stream mid-way; Close must let the
// dispatcher and workers wind down without the consumer draining.
func TestPipelineEarlyClose(t *testing.T) {
	p, err := NewPipeline(DefaultManifest(), PipelineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := p.Next(); !ok || err != nil {
		t.Fatalf("next: ok=%v err=%v", ok, err)
	}
	p.Close()
	p.Close() // idempotent
}

// TestPipelineLatchesError checks a failing entry poisons the stream.
func TestPipelineLatchesError(t *testing.T) {
	entries := []Entry{{Name: "bad", Family: FamilyBanded, Gen: GenSpec{Kind: "nope"}}}
	p, err := NewPipeline(entries, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok, err := p.Next(); ok || err == nil {
		t.Fatalf("want latched error, got ok=%v err=%v", ok, err)
	}
	if _, ok, err := p.Next(); ok || err == nil {
		t.Fatal("error must stay latched")
	}
}

// unrecorded copies a pattern through sparse.New, which does not record
// symmetry, so Permute on the copy scatters and then transposes.
func unrecorded(t *testing.T, m *sparse.Matrix) *sparse.Matrix {
	t.Helper()
	cols := make([][]int, m.N())
	for j := range cols {
		for _, i := range m.Col(j) {
			cols[j] = append(cols[j], int(i))
		}
	}
	u, err := sparse.New(m.N(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// The pipeline's trees — one symbolic analysis per ordering, amalgamated
// per relax, from a Permute that skips its transpose for the symmetrized
// pattern — equal, digest for digest, the trees of the full path:
// scatter-plus-transpose Permute, then symbolic.AssemblyTree per relax.
// Every corpus matrix × ordering × relax {0, 1, 4, 16}.
func TestPipelineTreesMatchAssemblyTree(t *testing.T) {
	relax := []int{0, 1, 4, 16}
	entries := append(DefaultManifest(), SmokeManifest()...)
	p, err := NewPipeline(entries, PipelineOptions{Relax: relax})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, e := range entries {
		m, _, err := e.Load("")
		if err != nil {
			t.Fatal(err)
		}
		s := m.Symmetrize()
		u := unrecorded(t, s)
		for _, ord := range OrderingNames() {
			perm, err := applyOrdering(ord, s)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := s.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := u.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			if pm.NNZ() != want.NNZ() {
				t.Fatalf("%s/%s: Permute has %d entries, scatter plus transpose %d", e.Name, ord, pm.NNZ(), want.NNZ())
			}
			for j := 0; j < pm.N(); j++ {
				if !reflect.DeepEqual(pm.Col(j), want.Col(j)) {
					t.Fatalf("%s/%s: Permute column %d is %v, scatter plus transpose %v", e.Name, ord, j, pm.Col(j), want.Col(j))
				}
			}
			for _, r := range relax {
				inst, ok, err := p.Next()
				if err != nil || !ok {
					t.Fatalf("pipeline ended early: ok=%v err=%v", ok, err)
				}
				name := fmt.Sprintf("%s/%s/r%d", e.Name, ord, r)
				res, err := symbolic.AssemblyTree(want, symbolic.AssemblyOptions{Relax: r})
				if err != nil {
					t.Fatal(err)
				}
				if inst.Name != name || inst.Tree.Digest() != res.Tree.Digest() {
					t.Fatalf("%s: pipeline tree %s (%s) differs from AssemblyTree's (%s)", name, inst.Name, inst.Tree.Digest(), res.Tree.Digest())
				}
				one, err := AssemblyTree(m, ord, r)
				if err != nil {
					t.Fatal(err)
				}
				if one.Digest() != inst.Tree.Digest() {
					t.Fatalf("%s: corpus.AssemblyTree's tree differs from the pipeline's", name)
				}
			}
		}
	}
	if _, ok, err := p.Next(); ok || err != nil {
		t.Fatalf("want clean exhaustion, got ok=%v err=%v", ok, err)
	}
}
