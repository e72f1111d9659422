// Griffin-style hash fast path: a sharded in-memory hash table over
// <normalized key -> RID> kept next to a B+-tree index.  Point reads
// probe the hash first (O(1), no page latches) and fall back to a tree
// descent on a miss; range scans keep using the tree.
//
// The hash is a *mirror* of the tree's leaf entries, maintained through
// BTree's IndexEntryObserver hooks, which fire under the leaf X latch at
// every logical entry mutation (insert, remove, flag change) — including
// the ARIES/IM logical-undo and pseudo-delete-GC paths.  Because the
// mirror carries the per-entry pseudo-delete flag, the NSF/SF visibility
// rules carry over unchanged: a probe never surfaces a pseudo-deleted
// entry, and an all-pseudo slot answers "deleted" exactly as a tree
// descent would.
//
// Correctness stance: a *missing* key is always safe (probe misses, the
// read falls back to the tree), so the structure only has to guarantee
// it never holds a *wrong* entry.  During bulk population (offline / SF
// phase 2) slots may be transiently incomplete; the fragment therefore
// stays unreadable (`readable() == false`, every probe reports kFallback)
// until Catalog::FinishBuild publishes it together with the index
// state flip.
//
// Concurrency: one SharedMutex per shard at rank kHashShard (95), which
// sits above the page-latch rank, so observer callbacks — running under a
// leaf X latch (rank 60) — acquire it in legal ascending order.  Probes
// take the shard lock shared with no latch held.

#ifndef OIB_HASHIDX_HASH_INDEX_H_
#define OIB_HASHIDX_HASH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"

namespace oib {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Outcome of a point probe.
enum class HashProbe : uint8_t {
  kHit,       // live entry found; *rid is the minimum live RID for the key
  kDeleted,   // key present but every entry is pseudo-deleted: the tree
              // would answer the same, so the read resolves to NotFound
              // without a descent
  kMiss,      // key definitely absent from the slot map: for a fragment
              // mirroring a complete tree this is authoritative, but the
              // read path still descends (cheap, and keeps the fallback
              // contract uniform)
  kFallback,  // fragment not readable yet (build in flight): descend
};

class HashIndex final : public IndexEntryObserver {
 public:
  // `shards` must be a power of two; 0 picks min(16, hw_concurrency)
  // rounded down to a power of two.
  explicit HashIndex(IndexId index_id, size_t shards = 0);
  ~HashIndex() override;

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  // --- read side -----------------------------------------------------
  // Probes for `key`.  On kHit, *rid is the minimum live RID — exactly
  // the entry BTree::FindKeyValue would return for a point lookup.
  // Never blocks on page latches; takes one shard lock shared.
  HashProbe Probe(std::string_view key, Rid* rid) const;

  // --- mirror maintenance (IndexEntryObserver) -----------------------
  // Called by the tree and its bulk loader under the leaf X latch, so
  // per-entry ordering is inherited from the latch, and by
  // PopulateHashFromTree over a quiescent tree.
  void OnLeafInsert(std::string_view key, const Rid& rid,
                    uint8_t flags) override;
  void OnLeafRemove(std::string_view key, const Rid& rid) override;
  void OnLeafSetFlags(std::string_view key, const Rid& rid,
                      uint8_t flags) override;

  // Empties every shard (build rollback / re-population from scratch).
  void Clear();

  // --- publication gate ----------------------------------------------
  bool readable() const { return readable_.load(std::memory_order_acquire); }
  void set_readable(bool on) {
    readable_.store(on, std::memory_order_release);
  }

  // --- introspection --------------------------------------------------
  size_t shard_count() const { return shards_.size(); }
  // Total mirrored entries (relaxed sum across shards).
  uint64_t entry_count() const;
  // Entries in one shard (relaxed).
  uint64_t shard_entry_count(size_t shard) const;

  // Registers per-shard occupancy value-fns (`hash.idx<N>.shard<K>.entries`)
  // with `this` as owner; the destructor detaches them.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    Rid rid;
    uint8_t flags;
  };
  // All entries for one normalized key: first duplicate inline (unique
  // indexes never allocate), the rest in a rarely-touched overflow list.
  struct Slot {
    Entry first;
    std::unique_ptr<std::vector<Entry>> overflow;
  };

  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const;
  };

  struct Shard {
    mutable sync::SharedMutex mu{sync::LockRank::kHashShard,
                                 "hashidx.shard.mu"};
    std::unordered_map<std::string, Slot, KeyHash, std::equal_to<>> map
        OIB_GUARDED_BY(mu);
    // Mirror of the total entry count (not slot count), readable without
    // the lock by the occupancy gauges.
    std::atomic<uint64_t> entries{0};
  };

  Shard& ShardFor(std::string_view key);
  const Shard& ShardFor(std::string_view key) const;

  IndexId index_id_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> readable_{false};
  obs::MetricsRegistry* metrics_ = nullptr;
};

// Rebuilds the mirror from a full tree scan: clears every shard, then
// replays the tree's leaf entries (flags included) through OnLeafInsert.
// Used at restart (Catalog::Load, SfIndexBuilder::Resume after a loader
// truncation) where the tree is quiescent.  Carries the `hash.populate`
// failpoint.
Status PopulateHashFromTree(BTree* tree, HashIndex* hash);

}  // namespace oib

#endif  // OIB_HASHIDX_HASH_INDEX_H_
