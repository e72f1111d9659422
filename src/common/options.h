// Engine-wide tunables.  Every knob the paper discusses as a design choice
// (keys per log record, IB checkpoint interval, leaf fill factor, ...) is a
// field here so the ablation benches can sweep it.

#ifndef OIB_COMMON_OPTIONS_H_
#define OIB_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace oib {

struct Options {
  // --- storage ---
  size_t page_size = 4096;
  size_t buffer_pool_pages = 4096;  // 16 MiB at default page size.
  // Buffer-pool shards (power of two).  Each shard owns a slice of the
  // frames with its own mutex, page table, free list, and CLOCK hand, so
  // concurrent fetches on different pages never serialize on one lock.
  // 0 = auto: min(16, hardware_concurrency), capped so that every shard
  // keeps at least kMinPagesPerShard frames.
  size_t buffer_pool_shards = 0;

  // --- write-ahead log ---
  // Capacity of the WAL append ring buffer (power of two).  Appenders
  // reserve space with one fetch-add and copy outside any lock; the ring
  // is drained into the log's backing store by Flush (group commit) or by
  // an appender that finds it full.  Must exceed the largest single log
  // record (a record spanning a full page plus framing fits comfortably
  // at the 1 MiB default).
  size_t wal_ring_bytes = 1 << 20;

  // --- recovery ---
  // Worker threads for the restart redo phase.  1 replays the log on the
  // calling thread (analysis and redo share one forward pass); N > 1
  // first collects redo work during analysis, then partitions it by
  // page id across N workers — per-page LSN order is preserved because a
  // page's records all land in the same partition, and multi-page records
  // (B+-tree splits, root growth) act as barriers applied serially.
  size_t recovery_threads = 1;

  // --- fault injection ---
  // Failpoint spec applied at Engine::Open/Restart (see
  // FailPointRegistry::ConfigureFromSpec for the grammar); empty = none.
  // The OIB_FAILPOINTS / OIB_FAILPOINT_SEED environment variables are
  // applied on top, so a harness can inject faults into any binary.
  std::string failpoints;
  // Seed for failpoint probability draws (reproducible crash schedules).
  uint64_t failpoint_seed = 0;

  // --- locking ---
  // Milliseconds a lock request waits before the requester is told to
  // abort (timeout-based deadlock resolution).
  uint64_t lock_timeout_ms = 2000;

  // --- external sort ---
  // Keys held in memory by the tournament tree during run generation.
  size_t sort_workspace_keys = 64 * 1024;
  // Maximum input runs merged in one pass.
  size_t sort_merge_fanin = 64;

  // --- B+-tree ---
  // Fraction of a leaf filled during bottom-up build / IB inserts; the
  // remainder is left free for future inserts (paper section 2.2.3).
  double leaf_fill_factor = 0.9;

  // --- index build (both algorithms) ---
  // Keys passed to the index manager per multi-key insert call
  // (paper: "the index manager will accept multiple keys in a single call").
  size_t ib_keys_per_call = 64;
  // Keys per IB progress checkpoint ("periodically checkpoint the highest
  // key", sections 2.2.3 / 3.2.4); 0 disables IB checkpoints.
  size_t ib_checkpoint_every_keys = 100000;
  // Pages read per simulated sequential-prefetch I/O (section 2.2.2).
  size_t ib_prefetch_pages = 32;
  // Sort-phase checkpoint interval, in extracted keys (section 5.1);
  // 0 disables sort checkpoints.
  size_t sort_checkpoint_every_keys = 100000;

  // --- SF specifics ---
  // Side-file entries IB reads, applies and commits per batch (section
  // 3.2.5); the catch-up leaves a backlog of at most about this many to
  // the gated drain.
  size_t sf_apply_batch = 1024;

  // --- build pipeline ---
  // Scan workers for the partitioned extract+sort phase.  1 keeps the
  // whole build on the calling thread (deterministic, seed-equivalent);
  // N > 1 splits the heap chain into N page ranges scanned concurrently.
  size_t build_threads = 1;
  // Sorted items handed from the final merge to the consumer (bulk loader
  // / IbInsertBatch) per batch; also the consumer's checkpoint grain.
  size_t merge_batch_keys = 1024;
  // Bounded merge->consumer queue depth when the merge runs on its own
  // thread (build_threads > 1).  2 = classic double buffering.
  size_t merge_queue_depth = 2;

  // --- hash fast path ---
  // Maintains a sharded hash table over <normalized key -> RID> next to
  // every B+-tree index and consults it first on point reads
  // (RecordManager::ReadRecordByKey), falling back to a tree descent on
  // a miss.  The hash mirrors the tree's leaf entries (including
  // pseudo-delete flags) via the tree's entry observer, so NSF/SF
  // visibility rules carry over unchanged.  Off by default: the engine is
  // byte-identical with the flag clear.
  bool enable_hash_index = false;
  // Shards per hash fragment (power of two).  0 = auto:
  // min(16, hardware_concurrency) rounded down to a power of two.
  size_t hash_index_shards = 0;

  // --- observability ---
  // Turns on the per-rank lock-contention profiler (common/sync.h,
  // obs/lock_profile.h): contended mutex acquisitions record wait and
  // hold times per LockRank.  Uncontended acquisitions stay a single
  // atomic either way; builds with OIB_NO_LOCK_PROFILE compile the whole
  // mechanism out and ignore this flag.  The switch is process-wide
  // (sticky-on): opening any engine with it set enables profiling.
  bool obs_lock_profile = false;
};

class Status;

// Rejects configurations the engine would silently misbehave on (zero
// workspaces, zero batch sizes, build_threads == 0, ...).  Called by
// Engine::Open/Restart before any component is wired up.
Status ValidateOptions(const Options& options);

}  // namespace oib

#endif  // OIB_COMMON_OPTIONS_H_
