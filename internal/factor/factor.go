// Package factor implements a numeric multifrontal Cholesky factorization —
// the computation whose memory behaviour the paper models. Each elimination
// tree node assembles the contribution blocks of its children with the
// original matrix entries into a dense frontal matrix, eliminates its pivot,
// and passes the Schur complement (contribution block) to its parent.
//
// The factorization instruments its memory use: the peak number of live
// dense entries (frontal matrix plus resident contribution blocks) is
// reported and — by construction — equals the paper's model exactly, with
// per-column weights f_j = (µ_j−1)² and n_j = µ_j² − (µ_j−1)². The tests
// verify this equality against traversal.PeakBottomUp, closing the loop
// between the abstract tree model and a real factorization.
package factor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// SPD couples a symmetric pattern with numeric values: Values[k] is the
// value of the entry at pattern position k (column-major, aligned with
// Matrix.Col slices).
type SPD struct {
	Pattern *sparse.Matrix
	Values  []float64
}

// Laplacian builds a symmetric positive definite matrix on the given
// pattern: off-diagonal entries are −1 and each diagonal entry is the
// off-diagonal count plus one (a shifted graph Laplacian, strictly
// diagonally dominant and hence SPD).
func Laplacian(pattern *sparse.Matrix) (*SPD, error) {
	if !pattern.IsSymmetric() || !pattern.HasFullDiagonal() {
		return nil, fmt.Errorf("factor: pattern must be symmetric with full diagonal")
	}
	values := make([]float64, 0, pattern.NNZ())
	for j := 0; j < pattern.N(); j++ {
		col := pattern.Col(j)
		deg := float64(len(col) - 1)
		for _, i := range col {
			if int(i) == j {
				values = append(values, deg+1)
			} else {
				values = append(values, -1)
			}
		}
	}
	return &SPD{Pattern: pattern, Values: values}, nil
}

// at returns A[i][j] if present (0 otherwise).
func (a *SPD) at(i, j int) float64 {
	col := a.Pattern.Col(j)
	k := sort.Search(len(col), func(x int) bool { return col[x] >= int32(i) })
	if k < len(col) && col[k] == int32(i) {
		base := 0
		for c := 0; c < j; c++ {
			base += len(a.Pattern.Col(c))
		}
		return a.Values[base+k]
	}
	return 0
}

// Cholesky is the computed sparse factor L (A = LLᵀ), stored column-wise
// with the diagonal first in each column.
type Cholesky struct {
	n      int
	colRow [][]int32   // row indices per column, sorted, diagonal first
	colVal [][]float64 // matching values
	// Perm is the fill-reducing permutation used (new-to-old); the factor is
	// of PAPᵀ.
	Perm []int
}

// Stats reports the instrumentation of one factorization run.
type Stats struct {
	// PeakLive is the maximum number of live dense entries: current frontal
	// matrix plus all resident contribution blocks.
	PeakLive int64
	// FactorNNZ is Σ column counts of L.
	FactorNNZ int64
	// Fronts is the number of frontal matrices processed (= n).
	Fronts int
	// ModelPeak is the paper-model prediction for the traversal used:
	// PeakBottomUp on the weighted elimination tree. It always equals
	// PeakLive.
	ModelPeak int64
}

// Options tunes the factorization.
type Options struct {
	// Order is the bottom-up traversal of the elimination tree to follow
	// (children before parents). Empty selects the etree postorder.
	Order []int
}

// Multifrontal factors the (already permuted) SPD matrix column by column
// along its elimination tree and reports memory instrumentation.
func Multifrontal(a *SPD, opt Options) (*Cholesky, *Stats, error) {
	n := a.Pattern.N()
	parent, err := symbolic.EliminationTree(a.Pattern)
	if err != nil {
		return nil, nil, err
	}
	counts, err := symbolic.ColumnCounts(a.Pattern, parent)
	if err != nil {
		return nil, nil, err
	}
	// Row structure of every L column via row-subtree traversals.
	structs, err := columnStructs(a.Pattern, parent, counts)
	if err != nil {
		return nil, nil, err
	}
	order := opt.Order
	if len(order) == 0 {
		order = symbolic.EtreePostorder(parent)
	}
	if err := validBottomUp(parent, order, n); err != nil {
		return nil, nil, err
	}
	// Numeric sweep.
	chol := &Cholesky{n: n, colRow: make([][]int32, n), colVal: make([][]float64, n)}
	cb := make([][]float64, n)  // contribution block of each processed column
	cbIdx := make([][]int32, n) // its index set (struct minus the pivot)
	kids := make([][]int32, n)
	for j, p := range parent {
		if p != symbolic.NoParent {
			kids[p] = append(kids[p], int32(j))
		}
	}
	var live, peak int64
	valBase := make([]int, n+1)
	for j := 0; j < n; j++ {
		valBase[j+1] = valBase[j] + len(a.Pattern.Col(j))
	}
	for _, j := range order {
		s := structs[j]
		sz := len(s)
		front := make([]float64, sz*sz)
		live += int64(sz * sz)
		if live > peak {
			peak = live
		}
		pos := make(map[int32]int, sz)
		for k, r := range s {
			pos[r] = k
		}
		// Assemble original entries of column j (lower part).
		for k, ir := range a.Pattern.Col(j) {
			i := int(ir)
			if i < j {
				continue
			}
			fi := pos[int32(i)]
			front[fi*sz+0] = a.Values[valBase[j]+k]
			if i != j {
				front[0*sz+fi] = a.Values[valBase[j]+k]
			}
		}
		// Extend-add the children contribution blocks, then free them.
		for _, c := range kids[j] {
			idx := cbIdx[c]
			block := cb[c]
			m := len(idx)
			for r := 0; r < m; r++ {
				fr := pos[idx[r]]
				for q := 0; q < m; q++ {
					front[fr*sz+pos[idx[q]]] += block[r*m+q]
				}
			}
			live -= int64(m * m)
			cb[c], cbIdx[c] = nil, nil
		}
		// Eliminate the pivot.
		d := front[0]
		if d <= 0 {
			return nil, nil, fmt.Errorf("factor: non-positive pivot %g at column %d", d, j)
		}
		ljj := math.Sqrt(d)
		colv := make([]float64, sz)
		colv[0] = ljj
		for r := 1; r < sz; r++ {
			colv[r] = front[r*sz] / ljj
		}
		chol.colRow[j] = s
		chol.colVal[j] = colv
		// Schur complement → contribution block for the parent.
		if sz > 1 && parent[j] != symbolic.NoParent {
			m := sz - 1
			block := make([]float64, m*m)
			for r := 0; r < m; r++ {
				for q := 0; q < m; q++ {
					block[r*m+q] = front[(r+1)*sz+(q+1)] - colv[r+1]*colv[q+1]
				}
			}
			cb[j] = block
			cbIdx[j] = s[1:]
			live += int64(m * m)
		}
		live -= int64(sz * sz)
		if live > peak {
			peak = live
		}
	}
	if live != 0 {
		return nil, nil, fmt.Errorf("factor: %d dense entries leaked", live)
	}
	st := &Stats{PeakLive: peak, FactorNNZ: symbolic.FactorNNZ(counts), Fronts: n}
	st.ModelPeak, err = modelPeak(parent, counts, order)
	if err != nil {
		return nil, nil, err
	}
	return chol, st, nil
}

// modelPeak evaluates the paper's model on the weighted elimination tree for
// the given bottom-up traversal: f_j = (µ_j−1)², n_j = µ_j² − (µ_j−1)².
func modelPeak(parent []int, counts []int64, order []int) (int64, error) {
	n := len(parent)
	f := make([]int64, n)
	nn := make([]int64, n)
	for j := 0; j < n; j++ {
		mu := counts[j]
		f[j] = (mu - 1) * (mu - 1)
		nn[j] = mu*mu - (mu-1)*(mu-1)
	}
	// Root contribution blocks leave the system: zero them like the
	// factorization does (no CB is produced at roots).
	adjParent := make([]int, n)
	roots := 0
	for j, p := range parent {
		adjParent[j] = p
		if p == symbolic.NoParent {
			roots++
			f[j] = 0
		}
	}
	if roots != 1 {
		return 0, fmt.Errorf("factor: model peak needs a single etree root, got %d", roots)
	}
	t, err := tree.New(adjParent, f, nn)
	if err != nil {
		return 0, err
	}
	return peakBottomUp(t, order)
}

// peakBottomUp mirrors traversal.PeakBottomUp without importing the package
// (factor sits below traversal in the dependency order used by the tests).
func peakBottomUp(t *tree.Tree, order []int) (int64, error) {
	if err := t.IsBottomUpOrder(order); err != nil {
		return 0, err
	}
	var resident, peak int64
	for _, i := range order {
		need := resident + t.F(i) + t.N(i)
		if need > peak {
			peak = need
		}
		resident += t.F(i) - t.ChildFileSum(i)
	}
	return peak, nil
}

func validBottomUp(parent []int, order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("factor: order has %d entries, want %d", len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for step, v := range order {
		if v < 0 || v >= n || pos[v] != -1 {
			return fmt.Errorf("factor: invalid order entry %d", v)
		}
		pos[v] = step
	}
	for j, p := range parent {
		if p != symbolic.NoParent && pos[j] > pos[p] {
			return fmt.Errorf("factor: column %d ordered after its parent %d", j, p)
		}
	}
	return nil
}

// Solve computes x with (PAPᵀ)x = b via forward and backward substitution
// on the factor. b has length n and is not modified.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("factor: rhs has %d entries, want %d", len(b), c.n)
	}
	y := make([]float64, c.n)
	copy(y, b)
	// Forward: Ly = b, column-oriented.
	for j := 0; j < c.n; j++ {
		rows, vals := c.colRow[j], c.colVal[j]
		if len(rows) == 0 {
			return nil, fmt.Errorf("factor: column %d missing", j)
		}
		y[j] /= vals[0]
		for k := 1; k < len(rows); k++ {
			y[rows[k]] -= vals[k] * y[j]
		}
	}
	// Backward: Lᵀx = y, row-oriented over columns in reverse.
	x := y
	for j := c.n - 1; j >= 0; j-- {
		rows, vals := c.colRow[j], c.colVal[j]
		s := x[j]
		for k := 1; k < len(rows); k++ {
			s -= vals[k] * x[rows[k]]
		}
		x[j] = s / vals[0]
	}
	return x, nil
}

// Residual returns ‖Ax − b‖∞ for the (permuted) system.
func Residual(a *SPD, x, b []float64) float64 {
	n := a.Pattern.N()
	r := make([]float64, n)
	copy(r, b)
	base := 0
	for j := 0; j < n; j++ {
		col := a.Pattern.Col(j)
		for k, ir := range col {
			r[ir] -= a.Values[base+k] * x[j]
		}
		base += len(col)
	}
	worst := 0.0
	for _, v := range r {
		if math.Abs(v) > worst {
			worst = math.Abs(v)
		}
	}
	return worst
}
