// RecordManager: the record-operation front door transactions use, and
// the component that implements the paper's Figure 1 (index updates during
// forward processing) and Figure 2 (index updates during rollback).
//
// Responsibilities:
//  * table IX / record X locking around heap operations;
//  * computing the "count of visible indexes" under the data-page latch
//    (via HeapFile's VisibleCountFn) and planning the exact index
//    maintenance actions against the same snapshot;
//  * index maintenance: direct tree updates for ready indexes, pseudo-
//    delete discipline for an NSF build in progress, side-file appends
//    for an SF build whose scan has passed the target RID;
//  * Figure 2 rollback compensation (via HeapRm's undo hook, invoked
//    under the data-page latch): comparing the logged count with the
//    current count and logically undoing index changes on indexes made
//    visible since the original data change — a side-file entry for an
//    index still being built, a (redo-only) tree update for one that has
//    completed.
//
// Active builds register here; the registry carries the SF scan position
// (Current-RID), the Index_Build flag, and the drain gate IB uses to flip
// the flag without losing in-flight appends.

#ifndef OIB_CORE_RECORD_MANAGER_H_
#define OIB_CORE_RECORD_MANAGER_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "core/catalog.h"
#include "core/schema.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "txn/lock_manager.h"

namespace oib {

// Packs a RID into an atomically updatable word, preserving order.
inline uint64_t PackRid(const Rid& rid) {
  return (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
}
inline Rid UnpackRid(uint64_t v) {
  return Rid(static_cast<PageId>(v >> 16), static_cast<SlotId>(v & 0xffff));
}

// One index being built by an active builder on some table.
struct InBuildIndex {
  IndexId id = kInvalidIndexId;
  BTree* tree = nullptr;
  SideFile* side_file = nullptr;  // SF only
  bool unique = false;
  std::vector<uint32_t> key_cols;
  std::vector<KeyColumnType> key_types;  // empty = all kString
};

// Shared state between an index builder and concurrent transactions.
struct ActiveBuild {
  BuildAlgo algo = BuildAlgo::kNone;
  std::vector<InBuildIndex> indexes;  // >1 for multi-index single scan
  // SF: IB's scan position; MinusInfinity before the scan starts,
  // Infinity after the last data page (section 3.2.2).
  std::atomic<uint64_t> current_rid{PackRid(Rid::MinusInfinity())};
  // Index_Build flag (section 3.2.1); cleared by IB after draining the
  // side-file.
  std::atomic<bool> index_build{true};
  // Drain gate: transactions hold it shared from the visibility decision
  // through their side-file append; IB holds it exclusive while applying
  // the final side-file entries and flipping index_build, so no decided-
  // but-unappended entry can be lost.  Acquired through the helpers
  // below: the underlying rwlock makes no fairness promise (glibc's
  // prefers readers), so with updaters continuously re-acquiring the
  // gate shared, a bare exclusive lock() could be starved indefinitely.
  // IB raises gate_closing first; new readers back off until it clears,
  // so IB waits only for the readers already past the check — each
  // holding the gate for one short append.
  //
  // Rank kDrainGate is EXEMPT from the order check: the gate is taken
  // shared under a data-page latch (the visibility decision) while page
  // latches are taken under the gate (side-file appends, final drain) —
  // a benign cycle over disjoint page sets that no total order can
  // express (see common/sync.h).
  sync::SharedMutex gate{sync::LockRank::kDrainGate, "activebuild.gate"};
  std::atomic<bool> gate_closing{false};

  sync::SharedLock EnterGateShared() {
    while (gate_closing.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return sync::SharedLock(&gate);
  }
  sync::UniqueLock CloseGate() {
    gate_closing.store(true, std::memory_order_release);
    sync::UniqueLock g(&gate);
    // Only raised while the writer *waits*: once the gate is held
    // exclusively the rwlock itself blocks readers, and clearing here
    // means no early-return path can leave readers spinning on the flag.
    gate_closing.store(false, std::memory_order_release);
    return g;
  }

  // ---- live progress (obs): written by the builder / transactions with
  // relaxed atomics, snapshotted by Engine::GetBuildProgress ----
  std::atomic<int> phase{static_cast<int>(obs::BuildPhase::kIdle)};
  std::atomic<uint64_t> keys_done{0};          // extracted + loaded/inserted
  // SF: side-file entries IB has read (applied or fenced out), summed
  // over the build's indexes; Engine::GetBuildProgress pairs it with the
  // side-files' own append counts.
  std::atomic<uint64_t> side_file_applied{0};
  uint64_t start_ns = 0;  // set once at registration

  Rid CurrentRid() const { return UnpackRid(current_rid.load()); }
  void SetCurrentRid(const Rid& rid) { current_rid.store(PackRid(rid)); }
  void SetPhase(obs::BuildPhase p) {
    phase.store(static_cast<int>(p), std::memory_order_relaxed);
  }
};

struct RecordManagerStats {
  std::atomic<uint64_t> side_file_appends{0};
  std::atomic<uint64_t> nsf_duplicate_inserts{0};  // undo-only records
  std::atomic<uint64_t> tombstone_inserts{0};
  std::atomic<uint64_t> rollback_compensations{0};
};

class RecordManager {
 public:
  RecordManager(Catalog* catalog, LockManager* locks,
                TransactionManager* txns, const Options* options)
      : catalog_(catalog), locks_(locks), txns_(txns), options_(options) {}

  ~RecordManager();

  RecordManager(const RecordManager&) = delete;
  RecordManager& operator=(const RecordManager&) = delete;

  // Registers records.{side_file_appends,nsf_duplicate_inserts,
  // tombstone_inserts,rollback_compensations} with `registry` as value
  // functions over stats() (owner = this; the destructor detaches them).
  void AttachMetrics(obs::MetricsRegistry* registry);

  // Wires the Figure 2 hook into the heap's recovery handler.
  void AttachHeapRm(HeapRm* heap_rm);

  // ---- record operations (Figure 1) ----
  StatusOr<Rid> InsertRecord(Transaction* txn, TableId table,
                             std::string_view record);
  Status DeleteRecord(Transaction* txn, TableId table, Rid rid);
  Status UpdateRecord(Transaction* txn, TableId table, Rid rid,
                      std::string_view new_record);
  StatusOr<std::string> ReadRecord(Transaction* txn, TableId table, Rid rid);
  // Point read through an index: resolves `key` to a RID — via the hash
  // fast path when enable_hash_index is set (tree descent on a miss),
  // via BTree::FindKeyValue otherwise — then S-locks and fetches the
  // record.  The fetched record's key is re-extracted and compared, with
  // a bounded retry on mismatch, so both resolution paths return exactly
  // the record whose key matches or NotFound.  The index must be kReady.
  StatusOr<std::string> ReadRecordByKey(Transaction* txn, TableId table,
                                        IndexId index, std::string_view key);
  // Test helper: insert at a specific dead RID (paper 2.2.3 example).
  Status InsertRecordAt(Transaction* txn, TableId table, Rid rid,
                        std::string_view record);

  // ---- build registry ----
  std::shared_ptr<ActiveBuild> RegisterBuild(
      TableId table, BuildAlgo algo, std::vector<InBuildIndex> indexes);
  void UnregisterBuild(TableId table);
  std::shared_ptr<ActiveBuild> GetBuild(TableId table) const;

  const RecordManagerStats& stats() const { return stats_; }

 private:
  // Maintenance plan, fixed under the data-page latch.
  struct MaintPlan {
    std::vector<IndexDescriptor> ready;   // ready indexes, creation order
    std::shared_ptr<ActiveBuild> build;   // null if no build active
    sync::SharedLock gate;                // held while build != null
    bool sf_visible = false;  // SF: Target-RID < Current-RID at decision
    uint32_t visible_count = 0;
  };

  // Runs under the data-page latch: decides visibility and the count.
  MaintPlan PlanFor(TableId table, const Rid& rid);

  // Key maintenance for one index change.
  Status InsertKey(Transaction* txn, TableId table, BTree* tree, bool unique,
                   bool nsf_build, std::string_view key, const Rid& rid);
  Status DeleteKey(Transaction* txn, BTree* tree, bool nsf_build,
                   std::string_view key, const Rid& rid);

  // Applies the plan after a heap change.  old_rec/new_rec may be empty
  // depending on the operation.
  Status Maintain(Transaction* txn, TableId table, const MaintPlan& plan,
                  HeapOp op, const Rid& rid, std::string_view old_rec,
                  std::string_view new_rec);

  // Figure 2 hook (called under the data-page latch, pre-CLR).
  Status UndoHook(Transaction* txn, TableId table, HeapOp original_op,
                  Rid rid, std::string_view before, std::string_view after,
                  uint32_t logged_visible_count);

  // For a unique index: resolves a key-value conflict with `existing`
  // following the paper's committed-ness protocol.  Returns OK if the
  // insert may proceed, UniqueViolation if it must fail.
  Status ResolveUniqueConflict(Transaction* txn, TableId table, BTree* tree,
                               std::string_view key, const Rid& new_rid);

  Catalog* catalog_;
  LockManager* locks_;
  TransactionManager* txns_;
  const Options* options_;

  mutable sync::Mutex builds_mu_{sync::LockRank::kRecordBuilds,
                                 "recordmanager.builds_mu"};
  std::map<TableId, std::shared_ptr<ActiveBuild>> builds_
      OIB_GUARDED_BY(builds_mu_);
  RecordManagerStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Hash fast-path outcome counters (registry-owned; cached here by
  // AttachMetrics so the read hot path is one relaxed fetch-add).
  obs::Counter* hash_hits_ = nullptr;
  obs::Counter* hash_misses_ = nullptr;
  obs::Counter* hash_fallbacks_ = nullptr;
};

}  // namespace oib

#endif  // OIB_CORE_RECORD_MANAGER_H_
