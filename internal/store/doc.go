// Package store is the out-of-core key→value engine behind the paged row
// store: a single file of fixed-size checksummed pages holding binary
// records in shared data pages, indexed by an on-disk copy-on-write B-tree
// keyed on the SHA-256 of the record key. Both the index and the data page
// in on demand through a bounded page cache, so a store holding hundreds of
// millions of records keeps a small constant resident footprint — the
// out-of-core discipline the source paper applies to tree traversals,
// applied to our own result cache.
//
// Crash safety follows the classic dual-meta design: every mutation goes to
// freshly allocated pages (committed pages are never overwritten in place),
// writes are ordered data pages before index pages before a fsync, and the
// transaction becomes visible only when one of the two alternating meta
// slots — the commit record — lands with a valid checksum. A crash at any
// byte rolls the file back to the previous commit; pages freed by a
// transaction re-enter circulation through the free list only after that
// transaction's commit record is durable, so the rollback state is always
// intact. Commits run off the request path: the write that fills the open
// transaction seals it and returns, and a background committer does the
// page writes and both fsyncs, one commit at a time, while reads see the
// sealed pages and new writes shadow them like committed ones. Deleting a record never rewrites the file: the record's bytes are
// accounted dead in the space map and its data page returns to the free
// list once every record on it has died.
//
// The engine is deliberately generic — keys and values are byte strings —
// so the schedule package can layer its row codec (and the cache's LRU
// bound) on top without an import cycle.
package store
