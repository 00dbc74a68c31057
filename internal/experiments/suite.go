package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/schedule"
	"repro/internal/tree"
)

// suiteOptions is Section VI-B's recipe: every matrix ordered with
// approximate minimum degree (the paper's amd) and nested dissection (its
// MeTiS), each ordering amalgamated with 1, 2, 4 and 16 relaxations per
// node.
var suiteOptions = corpus.PipelineOptions{
	Orderings: []string{"amd", "nd"},
	Relax:     []int{1, 2, 4, 16},
}

// Suite builds the assembly trees Section VI runs on: each entry of the
// manifest (corpus.SuiteManifest at some scale) streamed through the
// corpus pipeline under Section VI-B's recipe, in manifest × ordering ×
// relax order, named "matrix/ordering/rN".
func Suite(entries []corpus.Entry) ([]schedule.Instance, error) {
	pipe, err := corpus.NewPipeline(entries, suiteOptions)
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	var out []schedule.Instance
	for {
		inst, ok, err := pipe.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, schedule.Instance{Name: inst.Name, Tree: inst.Tree})
	}
}

// RandomWeightSuite implements Section VI-E: it keeps the shape of every
// assembly tree but draws execution files uniformly from [1, N/500] and
// input files from [1, N], where N is the node count, producing
// seedsPerTree randomized copies of each instance. Copy s of base[i] is
// seeded by (i, s), so the suite depends on the order of base.
func RandomWeightSuite(base []schedule.Instance, seedsPerTree int) []schedule.Instance {
	var out []schedule.Instance
	for bi, inst := range base {
		for s := 0; s < seedsPerTree; s++ {
			rng := newDeterministicRand(int64(bi)*1000 + int64(s) + 1)
			out = append(out, schedule.Instance{
				Name: fmt.Sprintf("%s/w%d", inst.Name, s),
				Tree: tree.RandomizeWeights(inst.Tree, rng),
			})
		}
	}
	return out
}
