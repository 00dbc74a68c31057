package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/tree"
)

func genTo(t *testing.T, args ...string) *tree.Tree {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.tree")
	if err := run(append(args, "-o", out)); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tree.Read(f)
	if err != nil {
		t.Fatalf("generated file unparsable: %v", err)
	}
	return tr
}

func TestGenerateHarpoon(t *testing.T) {
	tr := genTo(t, "-kind", "harpoon", "-b", "3", "-levels", "1", "-mem", "30", "-eps", "1")
	if tr.Len() != 10 {
		t.Fatalf("harpoon has %d nodes, want 10", tr.Len())
	}
}

func TestGenerateRandomKinds(t *testing.T) {
	for _, attach := range []string{"uniform", "preferential", "chainy"} {
		tr := genTo(t, "-kind", "random", "-nodes", "50", "-attach", attach, "-seed", "3")
		if tr.Len() != 50 {
			t.Fatalf("%s random tree has %d nodes", attach, tr.Len())
		}
	}
}

func TestGenerateChain(t *testing.T) {
	tr := genTo(t, "-kind", "chain", "-nodes", "17")
	if tr.Len() != 17 || tr.Depth() != 16 {
		t.Fatalf("chain: %d nodes, depth %d", tr.Len(), tr.Depth())
	}
}

func TestGenerateReduction(t *testing.T) {
	tr := genTo(t, "-kind", "reduction", "-items", "3,5,2,4")
	if tr.Len() != 11 {
		t.Fatalf("reduction gadget has %d nodes, want 11", tr.Len())
	}
}

func TestGenerateAssemblyMatrices(t *testing.T) {
	for _, spec := range []string{"grid2d:8", "grid3d:4", "rand:60,2.5", "band:50,3"} {
		for _, ord := range []string{"md", "nd", "rcm", "natural"} {
			tr := genTo(t, "-kind", "assembly", "-matrix", spec, "-order", ord, "-relax", "2")
			if tr.Len() < 1 {
				t.Fatalf("%s/%s produced empty tree", spec, ord)
			}
		}
	}
}

// TestAssemblyMatchesCorpusPipeline pins that -kind assembly builds the
// corpus pipeline's trees: grid2d:9 is the smoke corpus's grid2d entry.
func TestAssemblyMatchesCorpusPipeline(t *testing.T) {
	e := corpus.SmokeManifest()[0]
	if e.Gen != (corpus.GenSpec{Kind: "grid2d", N: 9}) {
		t.Fatalf("smoke manifest changed: %+v", e.Gen)
	}
	p, err := corpus.NewPipeline([]corpus.Entry{e}, corpus.PipelineOptions{Relax: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, ord := range corpus.OrderingNames() {
		inst, ok, err := p.Next()
		if err != nil || !ok {
			t.Fatalf("pipeline ended early: ok=%v err=%v", ok, err)
		}
		if tr := genTo(t, "-kind", "assembly", "-matrix", "grid2d:9", "-order", ord, "-relax", "4"); tr.Digest() != inst.Tree.Digest() {
			t.Fatalf("%s: treegen tree differs from the pipeline's %s", ord, inst.Name)
		}
	}
}

func TestGenerateFromMatrixMarket(t *testing.T) {
	mm := filepath.Join(t.TempDir(), "m.mtx")
	content := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 1\n3 2\n"
	if err := os.WriteFile(mm, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := genTo(t, "-kind", "assembly", "-matrix", "mm:"+mm, "-order", "md", "-relax", "1")
	if tr.Len() < 1 {
		t.Fatal("empty tree from MatrixMarket input")
	}
	// -from-mtx is the same input spelled as a file flag; amd aliases md.
	if from := genTo(t, "-from-mtx", mm, "-order", "amd", "-relax", "1"); from.Digest() != tr.Digest() {
		t.Fatal("-from-mtx tree differs from -matrix mm: tree")
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := [][]string{
		{"-kind", "nope"},
		{"-kind", "harpoon", "-b", "1"},
		{"-kind", "random", "-attach", "nope"},
		{"-kind", "assembly", "-matrix", "nokind"},
		{"-kind", "assembly", "-matrix", "grid2d:x"},
		{"-kind", "assembly", "-matrix", "grid2d:8,3"},
		{"-kind", "assembly", "-matrix", "weird:3"},
		{"-kind", "assembly", "-matrix", "rand:5"},
		{"-kind", "assembly", "-matrix", "band:5"},
		{"-kind", "assembly", "-matrix", "band:50,3.5"},
		{"-kind", "assembly", "-matrix", "grid2d:8", "-order", "nope"},
		{"-kind", "reduction", "-items", "1,2,x"},
		{"-kind", "reduction", "-items", "1,2"}, // odd sum: 3
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
