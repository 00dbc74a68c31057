// Package repro is a from-scratch Go reproduction of Jacquelin, Marchal,
// Robert and Uçar, "On optimal tree traversals for sparse matrix
// factorization" (IPDPS 2011): memory-optimal traversals of tree-shaped
// workflows (MinMemory) and I/O-minimizing out-of-core traversals (MinIO),
// together with the complete multifrontal substrate needed to regenerate
// the paper's experimental evaluation.
//
// The library lives under internal/ — see README.md for the package map
// and DESIGN.md for the architecture:
//
//   - internal/tree, internal/pebble: the paper's workflow model and its
//     pebble-game connections.
//   - internal/traversal, internal/minio: the MinMemory solvers and the
//     MinIO policies and oracles.
//   - internal/schedule: the algorithm registry, the shared traversal
//     simulator, and the batch/streaming evaluation engine (Local, Cached,
//     Shard backends; see that package's doc for the Backend contract,
//     ordering guarantees, residency bounds and retry behavior).
//   - internal/service: the HTTP/JSON evaluation service and its client,
//     turning any machine running cmd/scheduled into an evaluation server.
//   - internal/sparse, internal/ordering, internal/symbolic,
//     internal/factor: the sparse-matrix substrate.
//   - internal/corpus: the matrix manifests (the real-matrix corpus and
//     Section VI's generator suites) and the pipeline that turns them into
//     the assembly trees the experiments run on.
//
// cmd/ contains the executables (experiments, minmem, minio, treegen,
// scheduled) and examples/ runnable walkthroughs. The benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// Section VI; `experiments -exp grid -backend url1,url2` runs the same
// grids sharded across evaluation servers with adaptive scheduling, child
// quarantine/readmission and cross-shard cache warming.
package repro
