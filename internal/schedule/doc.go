// Package schedule is the evaluation engine of the reproduction: one
// registry of every algorithm the paper studies (MinMemory solvers, MinIO
// eviction policies and oracles), one event-driven traversal simulator they
// all share, and a pluggable batch/streaming evaluator that runs
// (instance × algorithm × budget) grids on local workers, through
// content-addressed caches, or across a fleet of evaluation servers.
//
// # Jobs, rows and the Backend contract
//
// A Job is one grid cell — a tree, an algorithm name, and the optional
// replay order / memory budget / window the algorithm's Request takes. A
// Row is the structured result, ready for CSV or JSON Lines export. A
// Backend evaluates jobs to rows under a strict determinism contract:
// given the same jobs, every backend produces bit-identical rows up to the
// Seconds column, whether the work ran in-process, from a cache, or on
// servers across the network. The differential tests pin this.
//
// Backend.Run is the materialized form (jobs slice in, rows slice out, in
// job order). Backend.Stream is the same contract over iterators: jobs are
// pulled from a JobSource as capacity frees up, rows are pushed to a
// RowSink in job order, one Push at a time.
//
// # Ordering guarantees
//
// Rows always arrive in job order — the order the source produced the
// jobs — regardless of completion order. Internally the streaming engine
// evaluates chunks concurrently and merges results with an
// order-preserving merge, so a streamed grid is bit-identical, in
// sequence, to a materialized Run over the same jobs. BatchOptions.OnRow
// fires in completion order (serialized); the returned slice and the sink
// are in job order.
//
// # Residency bounds
//
// The streaming engine cuts the source into chunks of
// StreamOptions.ChunkSize jobs and keeps at most StreamOptions.InFlight
// chunks alive at once — read from the source but not yet drained into the
// sink. Peak resident jobs and rows are therefore bounded by
// ChunkSize × InFlight regardless of stream length: a grid larger than
// memory flows through as long as the sink drains.
//
// # Retry, quarantine and readmission
//
// Shard fans chunks out across several child backends. Each chunk is
// dispatched by the ShardOptions.Policy scheduler — adaptive by default,
// weighting dispatch by each child's windowed observed throughput and
// in-flight load. A chunk whose child fails is resubmitted to another
// child; the failing child is quarantined with exponential backoff, probed
// (HealthChecker) once the backoff expires, and readmitted when the probe
// passes. Only when every child has failed the chunk — by running it or by
// failing its readmission probe — does the stream fail, with a *ChunkError
// naming the chunk's global job index range so the run can be resumed.
// Below the shard, service.Client retries transient submission failures
// (connection errors, 5xx, truncated streams) per its Retries field
// without re-announcing rows already delivered.
//
// # The simulator and the solver kernel
//
// Simulate is the single replay loop behind every evaluation: in-core
// peak measurement, feasibility checking, and the out-of-core eviction
// simulation under one of the six greedy policies. The policies are
// Evictor values constructed by LSNF, FirstFit, BestFit, FirstFill,
// BestFill and BestK; the Best-K subset search runs as branch-and-bound
// over the window (bit-identical to the full 2^K enumeration it
// replaced), and its window is validated once, at construction, with a
// typed *WindowRangeError. With Config.Profile set, Simulate also
// canonicalizes the replay's memory curve through the shared
// internal/hillvalley kernel into Simulation.Profile — on a Liu-optimal
// bottom-up traversal that decomposition equals Liu's certificate
// profile exactly.
//
// # Caching and warming
//
// Cached decorates any backend with a content-addressed row store keyed by
// CacheKey (tree digest + algorithm + budget + window + order digest);
// MemStore (in process) and PagedStore (on disk, out of core) implement the
// Store interface with optional LRU bounds. A Shard with ShardOptions.Warm forwards each computed chunk's
// keyed rows to every sibling implementing RowWarmer, so the fleet's
// caches converge on one warm working set.
package schedule
