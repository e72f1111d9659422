// Engine-wide tunables.  A setting is a field here only when something
// sets it to a second value: a knob the paper discusses as a design choice
// (keys per log record, IB checkpoint interval, leaf fill factor, sort
// workspace, side-file batch) that the ablation benches sweep; the scan
// worker count; the page and pool sizes the benches and tests shrink; the
// hash fast path; and fault injection / observability switches.  Tests
// also set hash_index_shards, sort_merge_fanin and lock_timeout_ms to
// second values so multi-shard hashing, multi-pass merging and lock waits
// run on any core count.  Everything with a single value in use is a
// named constant next to the code that uses it (the WAL ring size, the
// buffer-pool shard count, the merge->consumer batch and queue depth) or,
// like the failpoint seed, comes from the environment (OIB_FAILPOINT_SEED).
// scripts/check_options_used.py fails CI when a field here is read
// nowhere in src/.

#ifndef OIB_COMMON_OPTIONS_H_
#define OIB_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace oib {

struct Options {
  // --- storage ---
  // At most 32 KiB: slotted pages store record offsets as 15-bit values.
  size_t page_size = 4096;
  size_t buffer_pool_pages = 4096;  // 16 MiB at default page size.

  // --- fault injection ---
  // Failpoint spec applied at Engine::Open/Restart (see
  // FailPointRegistry::ConfigureFromSpec for the grammar); empty = none.
  // The OIB_FAILPOINTS / OIB_FAILPOINT_SEED environment variables are
  // applied on top, so a harness can inject faults into any binary; the
  // seed of probability draws comes only from OIB_FAILPOINT_SEED (or
  // FailPointRegistry::SetSeed).
  std::string failpoints;

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
