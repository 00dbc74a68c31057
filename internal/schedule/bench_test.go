package schedule_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/schedule/scheduletest"
	"repro/internal/tree"
)

// benchTree builds one large random assembly-shaped tree for the simulator
// hot path; the preferential attachment gives the wide, irregular shapes of
// real assembly trees.
func benchTree(b *testing.B, nodes int) (*tree.Tree, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(2011))
	tr, err := tree.Random(rng, tree.RandomOptions{Nodes: nodes, MaxF: 100, MaxN: 40, Attach: tree.AttachPreferential})
	if err != nil {
		b.Fatal(err)
	}
	return tr, tr.TopDown()
}

// BenchmarkSimulator tracks the unified simulator's hot paths so future PRs
// can spot regressions: the in-core peak accounting, the feasibility check,
// and the eviction replay under the cheapest and the most expensive policy.
func BenchmarkSimulator(b *testing.B) {
	const nodes = 50_000
	tr, order := benchTree(b, nodes)
	peak, err := schedule.Simulate(tr, order, schedule.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("InCorePeak", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := schedule.Simulate(tr, order, schedule.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Feasibility", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: peak.Peak}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Eviction replay at a budget between the floor and this traversal's
	// in-core need, where the policies actually fire.
	budget := tr.MaxMemReq() + (peak.Peak-tr.MaxMemReq())/2
	for _, name := range []string{"lsnf", "best-k"} {
		ev, err := schedule.EvictorByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Evict/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Simulate(tr, order, schedule.Config{Memory: budget, Evict: ev}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHedgedStraggler measures what hedging buys. Each op is one
// 64-job batch (chunks of 8) through a shard over two children, of which
// child 0 stalls 20 ms on every call, with hedging off and on (HedgeAfter
// 2 ms). "cold" builds a fresh shard per batch, so adaptive dispatch has
// not measured the straggler yet and explores it first — the case of a
// restarted front door, or of a child that degraded since it was last
// measured. "warm" reuses one shard, whose measurements already steer
// chunks away from the straggler. It reports each batch's p50 and p99
// latency and the hedges per batch; it asserts nothing about time.
func BenchmarkHedgedStraggler(b *testing.B) {
	var insts []schedule.Instance
	for seed := int64(0); seed < 32; seed++ {
		tr, err := tree.Random(rand.New(rand.NewSource(seed)), tree.RandomOptions{Nodes: 40, MaxF: 15, MaxN: 6})
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, schedule.Instance{Name: fmt.Sprint("rand-", seed), Tree: tr})
	}
	jobs := schedule.MinMemoryGrid(insts, []string{"postorder", "minmem"})
	for _, mode := range []string{"cold", "warm"} {
		for _, hedgeAfter := range []time.Duration{0, 2 * time.Millisecond} {
			name := mode + "/hedge-off"
			if hedgeAfter > 0 {
				name = mode + "/hedge-on"
			}
			b.Run(name, func(b *testing.B) {
				newShard := func() *schedule.Shard {
					straggler := scheduletest.NewFaultBackend(schedule.Local{})
					straggler.SetDelay(20 * time.Millisecond)
					shard, err := schedule.NewShardWith(schedule.ShardOptions{HedgeAfter: hedgeAfter, ChunkSize: 8},
						straggler, schedule.Local{})
					if err != nil {
						b.Fatal(err)
					}
					return shard
				}
				shard := newShard()
				var hedges int64
				lat := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" && i > 0 {
						hedges += shard.Counters().Hedges
						shard = newShard()
					}
					t0 := time.Now()
					if _, err := shard.Run(context.Background(), jobs, schedule.BatchOptions{}); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(t0))
				}
				b.StopTimer()
				hedges += shard.Counters().Hedges
				slices.Sort(lat)
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				b.ReportMetric(ms(lat[len(lat)/2]), "p50_ms")
				b.ReportMetric(ms(lat[(len(lat)*99)/100]), "p99_ms")
				b.ReportMetric(float64(hedges)/float64(b.N), "hedges/op")
			})
		}
	}
}
