// Catalog: tables and index descriptors, with durable metadata.
//
// Index descriptors follow the paper's lifecycle: once created, the index
// is *maintainable* (update transactions must account for it — directly in
// NSF, via visibility + side-file in SF) but not yet *readable*; it
// becomes readable when the build completes.  Descriptors are appended to
// a per-table ordered list; the "count of visible indexes" logged with
// every data-page update (Figures 1-2) is an index into that list, which
// works because the index count can only grow while update transactions
// are active (dropping requires a table S lock — paper footnote 6).
//
// Catalog metadata persists through DiskManager::PutMeta (atomic w.r.t.
// simulated crashes) rather than the WAL; see DESIGN.md.

#ifndef OIB_CORE_CATALOG_H_
#define OIB_CORE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/key.h"
#include "common/options.h"
#include "common/status.h"
#include "common/sync.h"
#include "hashidx/hash_index.h"
#include "heap/heap_file.h"
#include "sidefile/side_file.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"

namespace oib {

enum class BuildAlgo : uint8_t {
  kNone = 0,     // not being built (ready or offline-built)
  kOffline = 1,
  kNsf = 2,
  kSf = 3,
};

enum class IndexState : uint8_t {
  kBuilding = 1,  // descriptor exists; build in progress (or interrupted)
  kReady = 2,     // available as an access path for reads
};

struct IndexDescriptor {
  IndexId id = kInvalidIndexId;
  std::string name;
  TableId table = 0;
  bool unique = false;
  std::vector<uint32_t> key_cols;
  // Normalized-encoding column types, parallel to key_cols (empty =
  // all kString); see common/key.h.
  std::vector<KeyColumnType> key_types;
  PageId anchor = kInvalidPageId;
  PageId side_file_first = kInvalidPageId;  // SF builds only
  IndexState state = IndexState::kBuilding;
  BuildAlgo algo = BuildAlgo::kNone;
};

struct TableInfo {
  TableId id = 0;
  std::string name;
  PageId first_page = kInvalidPageId;
};

class Catalog {
 public:
  Catalog(BufferPool* pool, TransactionManager* txns, DiskManager* disk,
          const Options* options)
      : pool_(pool), txns_(txns), disk_(disk), options_(options) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // ---- tables ----
  StatusOr<TableId> CreateTable(const std::string& name);
  HeapFile* table(TableId id) const;
  StatusOr<TableId> TableByName(const std::string& name) const;

  // ---- indexes ----
  // Creates descriptor + empty tree (+ side-file for SF).  The caller
  // (builder) is responsible for the quiesce protocol around this.
  StatusOr<IndexDescriptor> CreateIndex(
      const std::string& name, TableId table, bool unique,
      std::vector<uint32_t> key_cols, BuildAlgo algo,
      std::vector<KeyColumnType> key_types = {});
  // Marks an index ready for reads (build complete) and persists.
  Status SetIndexReady(IndexId id);
  // Removes an index entirely (cancel / drop).  Caller holds the table
  // S lock per section 2.3.2.
  Status DropIndex(IndexId id);

  BTree* index(IndexId id) const;
  SideFile* side_file(IndexId id) const;
  // Hash fast-path fragment for an index; nullptr when the engine runs
  // with enable_hash_index off (the default).
  HashIndex* hash_index(IndexId id) const;
  StatusOr<IndexDescriptor> descriptor(IndexId id) const;
  // Descriptors of a table in creation order (the count-prefix order).
  std::vector<IndexDescriptor> IndexesOf(TableId table) const;
  std::vector<IndexDescriptor> AllIndexes() const;

  // ---- durability ----
  Status Persist();
  // Loads metadata and re-opens every table / tree / side-file object.
  // Heaps open from the last persisted chain snapshots, so only the pages
  // linked since then are read.
  Status Load();

  // Every heap's chain snapshot (HeapFile::TakeChainSnapshot), encoded.
  // Engine::Checkpoint takes them before it appends its checkpoint record
  // and hands them to PersistHeapChains only once the log is durable past
  // that record, so every page they name has a durable format/link.
  std::string SnapshotHeapChains() const;
  Status PersistHeapChains(const std::string& blob);

 private:
  Status PersistLocked() OIB_REQUIRES(mu_);

  BufferPool* pool_;
  TransactionManager* txns_;
  DiskManager* disk_;
  const Options* options_;

  // Update transactions acquire mu_ under heap page latches (PlanFor ->
  // IndexesOf), so the catalog must never latch a page while holding it;
  // rank kCatalog > kPageLatch makes the checker enforce that direction
  // and abort on the reverse.
  mutable sync::Mutex mu_{sync::LockRank::kCatalog, "catalog.mu"};
  std::map<TableId, TableInfo> tables_ OIB_GUARDED_BY(mu_);
  std::map<TableId, std::unique_ptr<HeapFile>> heaps_ OIB_GUARDED_BY(mu_);
  std::map<IndexId, IndexDescriptor> indexes_ OIB_GUARDED_BY(mu_);
  std::map<IndexId, std::unique_ptr<BTree>> trees_ OIB_GUARDED_BY(mu_);
  std::map<IndexId, std::unique_ptr<SideFile>> side_files_
      OIB_GUARDED_BY(mu_);
  // Hash fast-path fragments, parallel to trees_ (only populated when
  // options_->enable_hash_index).  Each fragment is also installed as its
  // tree's entry observer, so erase order matters: detach first.
  std::map<IndexId, std::unique_ptr<HashIndex>> hashes_ OIB_GUARDED_BY(mu_);
  // Per-table creation order.
  std::map<TableId, std::vector<IndexId>> table_indexes_ OIB_GUARDED_BY(mu_);
  TableId next_table_id_ OIB_GUARDED_BY(mu_) = 1;
  IndexId next_index_id_ OIB_GUARDED_BY(mu_) = 1;
};

}  // namespace oib

#endif  // OIB_CORE_CATALOG_H_
