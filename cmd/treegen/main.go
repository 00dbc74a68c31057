// Command treegen generates .tree workflow files: Theorem 1 harpoons,
// random trees, 2-Partition reduction gadgets, and full assembly trees
// produced by the matrix → ordering → symbolic pipeline.
//
// Usage examples:
//
//	treegen -kind harpoon -b 4 -levels 3 -mem 400 -eps 1 -o harpoon.tree
//	treegen -kind random -nodes 1000 -maxf 100 -maxn 20 -seed 7 -o rnd.tree
//	treegen -kind assembly -matrix grid2d:32 -order md -relax 4 -o asm.tree
//	treegen -from-mtx bcsstk10.mtx -order md -relax 4 -o bcsstk10.tree
//	treegen -kind reduction -items 3,5,2,4 -o gadget.tree
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "treegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("treegen", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "random", "tree kind: harpoon | random | assembly | reduction | chain")
		out     = fs.String("o", "", "output file (default stdout)")
		b       = fs.Int("b", 3, "harpoon: branches per level")
		levels  = fs.Int("levels", 1, "harpoon: nesting depth")
		mem     = fs.Int64("mem", 300, "harpoon: M parameter")
		eps     = fs.Int64("eps", 1, "harpoon: ε parameter")
		nodes   = fs.Int("nodes", 100, "random/chain: node count")
		maxF    = fs.Int64("maxf", 100, "random/chain: max input file size")
		maxN    = fs.Int64("maxn", 10, "random/chain: max execution file size")
		attach  = fs.String("attach", "uniform", "random: uniform | preferential | chainy")
		seed    = fs.Int64("seed", 1, "random: PRNG seed")
		matrix  = fs.String("matrix", "grid2d:16", "assembly: grid2d:K | grid3d:K | rand:N,DEG | band:N,B | mm:FILE")
		fromMtx = fs.String("from-mtx", "", "build an assembly tree from this MatrixMarket file (implies -kind assembly, overrides -matrix)")
		order   = fs.String("order", "md", "assembly: md (alias of amd) | amd | nd | rcm | natural")
		relax   = fs.Int("relax", 1, "assembly: relaxed amalgamation budget per node")
		items   = fs.String("items", "1,2,3", "reduction: comma-separated 2-Partition items")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fromMtx != "" {
		*kind = "assembly"
		*matrix = "mm:" + *fromMtx
	}
	var (
		t   *tree.Tree
		err error
	)
	switch *kind {
	case "harpoon":
		t, err = tree.NestedHarpoon(*b, *levels, *mem, *eps)
	case "random":
		var k tree.AttachKind
		switch *attach {
		case "uniform":
			k = tree.AttachUniform
		case "preferential":
			k = tree.AttachPreferential
		case "chainy":
			k = tree.AttachChainy
		default:
			return fmt.Errorf("unknown attach kind %q", *attach)
		}
		t, err = tree.Random(rand.New(rand.NewSource(*seed)), tree.RandomOptions{
			Nodes: *nodes, MaxF: *maxF, MaxN: *maxN, Attach: k,
		})
	case "chain":
		rng := rand.New(rand.NewSource(*seed))
		f := make([]int64, *nodes)
		n := make([]int64, *nodes)
		for i := range f {
			f[i] = 1 + rng.Int63n(*maxF)
			if *maxN > 0 {
				n[i] = rng.Int63n(*maxN + 1)
			}
		}
		t, err = tree.Chain(f, n)
	case "assembly":
		t, err = buildAssembly(*matrix, *order, *relax)
	case "reduction":
		var a []int64
		for _, s := range strings.Split(*items, ",") {
			v, perr := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if perr != nil {
				return fmt.Errorf("bad item %q: %v", s, perr)
			}
			a = append(a, v)
		}
		var inst *tree.TwoPartitionInstance
		inst, err = tree.NewTwoPartition(a)
		if err == nil {
			t = inst.Tree
			fmt.Fprintf(os.Stderr, "reduction: M=%d IO bound=%d\n", inst.Memory, inst.IOBound)
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		file, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer file.Close()
		w = file
	}
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d-node tree (MaxMemReq=%d)\n", t.Len(), t.MaxMemReq())
	return nil
}

// buildAssembly builds an assembly tree the way the corpus pipeline does.
func buildAssembly(matrixSpec, orderName string, relax int) (*tree.Tree, error) {
	m, err := parseMatrix(matrixSpec)
	if err != nil {
		return nil, err
	}
	if orderName == "md" {
		orderName = "amd"
	}
	return corpus.AssemblyTree(m, orderName, relax)
}

// parseMatrix reads a MatrixMarket file (mm:FILE) or generates the matrix
// of a corpus generator spec: grid2d:K, grid3d:K, rand:N,DEG (seed 99) or
// band:N,B.
func parseMatrix(spec string) (*sparse.Matrix, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("matrix spec %q: want kind:params", spec)
	}
	if kind == "mm" {
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	}
	params := strings.Split(arg, ",")
	g := corpus.GenSpec{Kind: kind}
	want := 2
	switch kind {
	case "grid2d", "grid3d":
		want = 1
	case "rand":
		g.Kind, g.Seed = "random", 99
	case "band":
	default:
		return nil, fmt.Errorf("unknown matrix kind %q", kind)
	}
	if len(params) != want {
		return nil, fmt.Errorf("%s matrix wants %d parameter(s), got %q", kind, want, arg)
	}
	var err error
	if g.N, err = strconv.Atoi(strings.TrimSpace(params[0])); err != nil {
		return nil, err
	}
	if want == 2 {
		if g.Arg, err = strconv.ParseFloat(strings.TrimSpace(params[1]), 64); err != nil {
			return nil, err
		}
	}
	return corpus.Entry{Name: spec, Gen: g}.Generate()
}
