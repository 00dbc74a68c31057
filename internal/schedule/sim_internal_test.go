package schedule

import (
	"math/rand"
	"slices"
	"testing"
)

// The step bitset answers as a list kept sorted by consumer step, latest
// first, would: Latest is its head and appendPositive its nonzero-file
// entries, in order, through random adds and removes.
func TestResidentSetMatchesSortedList(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := allocTree(t, 300)
	order := tr.TopDown()
	pos := make([]int, len(order))
	for step, v := range order {
		pos[v] = step
	}
	s := NewResidentSet(order, pos)
	var model []int // nodes, latest consumer first
	for op := 0; op < 5000; op++ {
		v := rng.Intn(len(order))
		k := slices.IndexFunc(model, func(u int) bool { return pos[u] <= pos[v] })
		if k >= 0 && model[k] == v {
			s.Remove(v)
			model = slices.Delete(model, k, k+1)
		} else {
			s.Add(v)
			if k < 0 {
				k = len(model)
			}
			model = slices.Insert(model, k, v)
		}
		got, ok := s.Latest()
		if ok != (len(model) > 0) || (ok && got != model[0]) {
			t.Fatalf("op %d: Latest = %d, %v; want head of %v", op, got, ok, model)
		}
		var want []int
		for _, u := range model {
			if tr.F(u) > 0 {
				want = append(want, u)
			}
		}
		if snap := s.appendPositive(tr, nil); !slices.Equal(snap, want) {
			t.Fatalf("op %d: snapshot %v, want %v", op, snap, want)
		}
	}
}
