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
//    under the data-page latch): the logged count is the number of ready
//    indexes, and every index beyond it is compensated from the heap
//    record's images — the pseudo-delete discipline for an NSF build, a
//    side-file entry for a visible SF build, a tree update for an index
//    that has completed since the change.  All of it is logged redo-only,
//    as are an NSF transaction's forward changes to its in-build index.
//
// Every plan starts from one load of the table's published view
// (Catalog::view): its ready indexes and its active build, which carries
// the SF scan position (Current-RID) and the drain gate.  Record
// operations take neither the catalog mutex nor any build registry lock.

#ifndef OIB_CORE_RECORD_MANAGER_H_
#define OIB_CORE_RECORD_MANAGER_H_

#include <atomic>

#include "common/sync.h"
#include "core/catalog.h"
#include "core/schema.h"
#include "obs/metrics.h"
#include "txn/lock_manager.h"

namespace oib {

struct RecordManagerStats {
  std::atomic<uint64_t> side_file_appends{0};
  std::atomic<uint64_t> nsf_duplicate_inserts{0};  // IB's key came first
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

  const RecordManagerStats& stats() const { return stats_; }

 private:
  // Maintenance plan, fixed under the data-page latch.
  struct MaintPlan {
    const TableView* view = nullptr;  // null for an unknown table
    sync::SharedLock gate;  // the build's drain gate, while it has one
    bool sf_visible = false;  // SF: Target-RID < Current-RID at decision
    uint32_t visible_count = 0;
  };

  // Runs under the data-page latch: loads the table's view, enters its
  // build's drain gate, and decides visibility and the count.  Forward
  // operations and the Figure 2 undo hook both plan here.
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
