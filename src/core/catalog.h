// Catalog: tables and index descriptors, with durable metadata, and the
// one published view of each table that record operations plan from.
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
// Published views.  Each table has one immutable TableView, swapped
// atomically: its heap, its ready indexes in creation order with their
// objects and key layout resolved, and the active build, if any, carrying
// the in-build indexes.  Record operations and the Figure 2 undo hook plan
// from one acquire load of it, with no catalog mutex, no reference count
// and no descriptor copy.  Only CreateTable, BeginBuild, FinishBuild and
// DropIndex republish a view (and Load, before any transaction runs).  A
// replaced view is kept, not freed, until the catalog dies: publication
// happens only at DDL, so this costs one small view per DDL, and a view
// pointer is never reused, so two loads compare equal exactly when the
// view did not change.  A view's raw object pointers stay valid while its
// table is locked by the holder: DropIndex needs the table S lock
// (cancel, footnote 6) or X lock (offline), and readers only dereference
// ready indexes, which only a test drops.
//
// Catalog metadata persists through DiskManager::PutMeta (atomic w.r.t.
// simulated crashes) rather than the WAL; see DESIGN.md.

#ifndef OIB_CORE_CATALOG_H_
#define OIB_CORE_CATALOG_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/key.h"
#include "common/options.h"
#include "common/status.h"
#include "common/sync.h"
#include "hashidx/hash_index.h"
#include "heap/heap_file.h"
#include "obs/progress.h"
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

// One index as record operations maintain it: its objects and key layout,
// resolved when the view is published.
struct IndexRef {
  IndexId id = kInvalidIndexId;
  BTree* tree = nullptr;
  SideFile* side_file = nullptr;  // SF builds only
  HashIndex* hash = nullptr;      // enable_hash_index only
  bool unique = false;
  std::vector<uint32_t> key_cols;
  std::vector<KeyColumnType> key_types;  // empty = all kString
};

// Packs a RID into an atomically updatable word, preserving order.
inline uint64_t PackRid(const Rid& rid) {
  return (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
}
inline Rid UnpackRid(uint64_t v) {
  return Rid(static_cast<PageId>(v >> 16), static_cast<SlotId>(v & 0xffff));
}

// Shared state between an index builder and concurrent transactions.  It
// is published in its table's view from BeginBuild until FinishBuild or
// the drop of one of its indexes; being published is the paper's
// Index_Build flag (section 3.2.1).
struct ActiveBuild {
  BuildAlgo algo = BuildAlgo::kNone;
  std::vector<IndexRef> indexes;  // >1 for multi-index single scan
  // SF: IB's scan position; MinusInfinity before the scan starts,
  // Infinity after the last data page (section 3.2.2).
  std::atomic<uint64_t> current_rid{PackRid(Rid::MinusInfinity())};
  // Drain gate: transactions hold it shared from the visibility decision
  // through their side-file append; SF's IB holds it exclusive while it
  // applies the final side-file entries and publishes the finished build,
  // so no decided-but-unappended entry can be lost.  Acquired through the
  // helpers below: the underlying rwlock makes no fairness promise
  // (glibc's prefers readers), so with updaters continuously re-acquiring
  // the gate shared, a bare exclusive lock() could be starved
  // indefinitely.  IB raises gate_closing first; new readers back off
  // until it clears, so IB waits only for the readers already past the
  // check — each holding the gate for one short append.
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
  uint64_t start_ns = 0;  // set once at BeginBuild

  Rid CurrentRid() const { return UnpackRid(current_rid.load()); }
  void SetCurrentRid(const Rid& rid) { current_rid.store(PackRid(rid)); }
  void SetPhase(obs::BuildPhase p) {
    phase.store(static_cast<int>(p), std::memory_order_relaxed);
  }
};

// A table as record operations see it; immutable once published.
struct TableView {
  HeapFile* heap = nullptr;
  std::vector<IndexRef> ready;         // kReady indexes, creation order
  std::shared_ptr<ActiveBuild> build;  // null when no build is active
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
  // The table's heap, read from its view (no mutex).
  HeapFile* table(TableId id) const;
  StatusOr<TableId> TableByName(const std::string& name) const;

  // The table's published view; null for an unknown table.  One acquire
  // load and no mutex, so record operations call it under page latches.
  const TableView* view(TableId table) const;

  // ---- indexes ----
  // Creates descriptor + empty tree (+ side-file for SF).  The caller
  // (builder) is responsible for the quiesce protocol around this.  The
  // index joins its table's view through BeginBuild.
  StatusOr<IndexDescriptor> CreateIndex(
      const std::string& name, TableId table, bool unique,
      std::vector<uint32_t> key_cols, BuildAlgo algo,
      std::vector<KeyColumnType> key_types = {});
  // Publishes a build of the kBuilding indexes `ids` on `table`: from now
  // on record operations maintain them as `algo` prescribes.  A table has
  // at most one build.
  StatusOr<std::shared_ptr<ActiveBuild>> BeginBuild(
      TableId table, BuildAlgo algo, const std::vector<IndexId>& ids);
  // Marks every index of the table's build ready for reads, persists once
  // and publishes the view without the build.  SF calls it with the drain
  // gate closed.
  Status FinishBuild(TableId table);
  // Removes an index entirely (cancel / drop); dropping an index of the
  // active build also unpublishes the build.  Caller holds the table S
  // lock per section 2.3.2 (or the offline builder's X lock).
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
  // Builds `table`'s view from the maps below and publishes it.
  void PublishLocked(TableId table, std::shared_ptr<ActiveBuild> build)
      OIB_REQUIRES(mu_);
  IndexRef RefLocked(const IndexDescriptor& d) const OIB_REQUIRES(mu_);

  // Table ids are dense and never reused; a view slot exists per id.
  static constexpr TableId kMaxTables = 1024;

  BufferPool* pool_;
  TransactionManager* txns_;
  DiskManager* disk_;
  const Options* options_;

  // Serializes DDL and persistence.  Record operations never take it
  // (they read views_); the catalog still never latches a page while
  // holding it, and rank kCatalog > kPageLatch keeps that checked.
  mutable sync::Mutex mu_{sync::LockRank::kCatalog, "catalog.mu"};
  // Published views, indexed by TableId; written only under mu_.
  std::array<std::atomic<const TableView*>, kMaxTables> views_{};
  // Every view ever published, current ones included (see the file
  // comment).
  std::vector<std::unique_ptr<const TableView>> published_
      OIB_GUARDED_BY(mu_);
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
