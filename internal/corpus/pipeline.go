package corpus

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// OrderingNames lists the pipeline's fill-reducing orderings in their
// canonical order: the identity baseline, reverse Cuthill–McKee, the AMD
// approximate minimum degree, and nested dissection.
func OrderingNames() []string { return []string{"natural", "rcm", "amd", "nd"} }

// applyOrdering computes the named permutation of a symmetric pattern.
func applyOrdering(name string, m *sparse.Matrix) ([]int, error) {
	switch name {
	case "natural":
		return ordering.Natural(m), nil
	case "rcm":
		return ordering.ReverseCuthillMcKee(m)
	case "amd":
		return ordering.MinimumDegree(m)
	case "nd":
		return ordering.NestedDissection(m, ordering.NestedDissectionOptions{LeafSize: 32})
	default:
		return nil, fmt.Errorf("corpus: unknown ordering %q (want one of %v)", name, OrderingNames())
	}
}

// AssemblyTree builds one matrix's assembly tree by the pipeline's steps —
// symmetrize, order with ord (one of OrderingNames), permute, amalgamate at
// relax — for a caller holding a single matrix rather than a manifest.
func AssemblyTree(m *sparse.Matrix, ord string, relax int) (*tree.Tree, error) {
	s := m.Symmetrize()
	perm, err := applyOrdering(ord, s)
	if err != nil {
		return nil, err
	}
	pm, err := s.Permute(perm)
	if err != nil {
		return nil, err
	}
	res, err := symbolic.AssemblyTree(pm, symbolic.AssemblyOptions{Relax: relax})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}

// Instance is one assembly tree produced by the pipeline, with provenance.
type Instance struct {
	// Name is "matrix/ordering/rN".
	Name string
	// Matrix, Family and Source describe the input pattern; Source is
	// "file" for a mirrored real matrix, "generator" for the fallback.
	Matrix string
	Family Family
	Source string
	// Ordering and Relax are the pipeline parameters of this instance.
	Ordering string
	Relax    int
	// Tree is the weighted assembly tree.
	Tree *tree.Tree
}

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// Dir is the local corpus mirror; empty uses generator fallbacks only.
	Dir string
	// Orderings defaults to OrderingNames().
	Orderings []string
	// Relax lists the amalgamation levels; defaults to {1, 4}.
	Relax []int
	// Workers bounds the per-matrix pipeline workers running concurrently
	// (≤ 0 selects GOMAXPROCS).
	Workers int
}

// Pipeline streams manifest entries through load → symmetrize →
// ordering × relax → assembly tree. Per-matrix workers run concurrently;
// Next delivers instances in deterministic manifest order regardless.
type Pipeline struct {
	order chan chan entryOut
	stop  chan struct{}
	once  sync.Once
	cur   []Instance
	err   error
}

type entryOut struct {
	recs []Instance
	err  error
}

// NewPipeline validates the options and starts the workers.
func NewPipeline(entries []Entry, opt PipelineOptions) (*Pipeline, error) {
	ords := opt.Orderings
	if len(ords) == 0 {
		ords = OrderingNames()
	}
	known := map[string]bool{}
	for _, o := range OrderingNames() {
		known[o] = true
	}
	for _, o := range ords {
		if !known[o] {
			return nil, fmt.Errorf("corpus: unknown ordering %q (want one of %v)", o, OrderingNames())
		}
	}
	relax := opt.Relax
	if len(relax) == 0 {
		relax = []int{1, 4}
	}
	for _, r := range relax {
		if r < 0 {
			return nil, fmt.Errorf("corpus: negative relax %d", r)
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pipeline{
		order: make(chan chan entryOut, workers),
		stop:  make(chan struct{}),
	}
	sem := make(chan struct{}, workers)
	go func() {
		defer close(p.order)
		for _, e := range entries {
			select {
			case sem <- struct{}{}:
			case <-p.stop:
				return
			}
			rc := make(chan entryOut, 1)
			go func(e Entry) {
				defer func() { <-sem }()
				recs, err := buildEntry(e, opt.Dir, ords, relax)
				rc <- entryOut{recs: recs, err: err}
			}(e)
			select {
			case p.order <- rc:
			case <-p.stop:
				return
			}
		}
	}()
	return p, nil
}

// buildEntry runs the full per-matrix pipeline for one manifest entry.
func buildEntry(e Entry, dir string, ords []string, relax []int) ([]Instance, error) {
	m, source, err := e.Load(dir)
	if err != nil {
		return nil, err
	}
	s := m.Symmetrize()
	recs := make([]Instance, 0, len(ords)*len(relax))
	for _, ord := range ords {
		perm, err := applyOrdering(ord, s)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
		}
		pm, err := s.Permute(perm)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s/%s: %w", e.Name, ord, err)
		}
		// The elimination tree, its postorder and the column counts do not
		// depend on relax: analyse once per ordering, amalgamate once per
		// relax, keeping only the tree.
		an, err := symbolic.Analyze(pm)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s/%s: %w", e.Name, ord, err)
		}
		for _, r := range relax {
			t, err := an.Tree(symbolic.AssemblyOptions{Relax: r})
			if err != nil {
				return nil, fmt.Errorf("corpus: %s/%s/r%d: %w", e.Name, ord, r, err)
			}
			recs = append(recs, Instance{
				Name:     fmt.Sprintf("%s/%s/r%d", e.Name, ord, r),
				Matrix:   e.Name,
				Family:   e.Family,
				Source:   source,
				Ordering: ord,
				Relax:    r,
				Tree:     t,
			})
		}
	}
	return recs, nil
}

// Next returns the next instance in manifest order; ok is false once the
// stream is exhausted. After an error the stream stays failed.
func (p *Pipeline) Next() (Instance, bool, error) {
	if p.err != nil {
		return Instance{}, false, p.err
	}
	for len(p.cur) == 0 {
		rc, ok := <-p.order
		if !ok {
			return Instance{}, false, nil
		}
		out := <-rc
		if out.err != nil {
			p.err = out.err
			p.Close()
			return Instance{}, false, out.err
		}
		p.cur = out.recs
	}
	rec := p.cur[0]
	p.cur = p.cur[1:]
	return rec, true, nil
}

// Close stops the dispatcher; in-flight workers finish and are dropped.
// Safe to call more than once and concurrently with Next's consumer
// winding down.
func (p *Pipeline) Close() {
	p.once.Do(func() { close(p.stop) })
}
