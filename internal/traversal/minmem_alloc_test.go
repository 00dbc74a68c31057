//go:build !race

// The race detector makes sync.Pool drop items at random, so the pin below
// holds only without it.

package traversal

import (
	"math/rand"
	"testing"
)

// On a path every level's frontier is live at once. The pooled frontier
// arena must keep MinMem's allocations per run a constant — the returned
// order — instead of one frontier slice per level.
func TestMinMemPathAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{300, 2500} {
		path := randomPath(rng, p)
		MinMem(path) // warm the pool
		if allocs := testing.AllocsPerRun(20, func() { MinMem(path) }); allocs > 1 {
			t.Fatalf("MinMem on a %d-node path: %.1f allocs per run, want ≤ 1", p, allocs)
		}
	}
}
