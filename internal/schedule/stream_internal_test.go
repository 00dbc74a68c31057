package schedule

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// streamSpine runs one stream of the given jobs through streamChunks with a
// trivial allocation-free evaluator, isolating the engine's own cost from
// the solvers'.
func streamSpine(tb testing.TB, jobs []Job, chunkSize, inFlight int) {
	tb.Helper()
	rows := 0
	sink := SinkFunc(func(r Row) error { rows++; return nil })
	err := streamChunks(context.Background(), SliceSource(jobs), sink, chunkSize, inFlight,
		func(_ context.Context, _ int, chunk []Job) ([]Row, error) {
			out := getRowSlice(len(chunk))
			for i := range chunk {
				out[i] = Row{Instance: chunk[i].Instance, Algorithm: chunk[i].Algorithm, Memory: int64(i)}
			}
			return out, nil
		})
	if err != nil {
		tb.Fatal(err)
	}
	if rows != len(jobs) {
		tb.Fatalf("streamed %d rows for %d jobs", rows, len(jobs))
	}
}

func spineJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Instance: "inst", Algorithm: "alg"}
	}
	return jobs
}

// streamBytes measures the bytes allocated by one spine stream, minimized
// over a few attempts. Like testing.AllocsPerRun it measures on one P with
// the collector off: the pools are per P, so on several Ps a goroutine
// that other processes' load moves to another P misses the buffers its
// chunk returned, and a collection mid-stream empties them.
func streamBytes(tb testing.TB, jobs []Job) uint64 {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	streamSpine(tb, jobs, DefaultChunkSize, 2) // warm the pools on this P
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for attempt := 0; attempt < 5; attempt++ {
		runtime.ReadMemStats(&m0)
		streamSpine(tb, jobs, DefaultChunkSize, 2)
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// Chunk residency must not scale allocations with grid size: the job and
// row buffers of a drained chunk go back to the pools, so an 8× longer
// stream allocates nowhere near 8× the bytes. Before the pools, every chunk
// paid a fresh []Job and []Row (~10KB per 64-job chunk) and this ratio sat
// at ~8.
func TestStreamChunkResidencyConstant(t *testing.T) {
	skipIfRace(t)
	const chunksSmall, chunksLarge = 8, 64
	small := spineJobs(chunksSmall * DefaultChunkSize)
	large := spineJobs(chunksLarge * DefaultChunkSize)
	bytesSmall := streamBytes(t, small)
	bytesLarge := streamBytes(t, large)
	t.Logf("spine bytes: %d chunks → %dB, %d chunks → %dB", chunksSmall, bytesSmall, chunksLarge, bytesLarge)
	if bytesLarge > 3*bytesSmall+4096 {
		t.Fatalf("chunk residency still scales with grid size: %d chunks cost %dB, %d chunks cost %dB (want < 3× + slack)",
			chunksSmall, bytesSmall, chunksLarge, bytesLarge)
	}
}

// The engine recycles row slices through Run implementations too: a warmed
// Cached stream (the batch-local binary spine) must keep per-row costs flat.
func BenchmarkStreamSpine(b *testing.B) {
	for _, chunks := range []int{8, 64} {
		b.Run(fmt.Sprintf("chunks-%d", chunks), func(b *testing.B) {
			jobs := spineJobs(chunks * DefaultChunkSize)
			streamSpine(b, jobs, DefaultChunkSize, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streamSpine(b, jobs, DefaultChunkSize, 2)
			}
		})
	}
}
