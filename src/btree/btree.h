// BTree: the index manager.
//
// A B+-tree over <key value, RID> entries with:
//  * latch-crabbing concurrent descent (S latches; X only on the leaf, or
//    on the whole unsafe path when a split is needed) — transactions and
//    the index builder never hold a data-page latch while inserting keys
//    (deadlock-avoidance rule of paper section 1.2);
//  * pseudo-delete support: logical key deletion via a flag bit, tombstone
//    inserts by deleters when the key is absent, reactivation on re-insert
//    (sections 2.1.2, 2.2.3);
//  * a multi-key IB insert interface with the remembered-path optimization
//    and the specialized "move only higher keys" IB split, leaving
//    configurable free space in each leaf (section 2.3.1);
//  * ARIES-style logging: undo-redo records for key operations (logical
//    undo via re-traversal, with CLRs), redo-only nested-top-action
//    records for page splits and root growth.  Each record type has one
//    apply function (btree.cc) that forward processing, CLRs and restart
//    redo all call.
//
// The root pointer lives in a dedicated *anchor page* so that root growth
// is recoverable with ordinary page-LSN-guarded redo.  An in-memory atomic
// caches the root; descents validate it after latching (the splitter
// publishes the new root while still holding the old root's X latch, so a
// stale descent always observes the change and retries).

#ifndef OIB_BTREE_BTREE_H_
#define OIB_BTREE_BTREE_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "btree/btree_page.h"
#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"

namespace oib {

// B+-tree RM opcodes.
enum class BtreeOp : uint8_t {
  kFormat = 1,         // NTA: init a page (payload: leaf u8, level u8)
  kInitAnchor = 2,     // NTA: write root id into the anchor page
  kInsertKey = 3,      // undo-redo, or redo-only (NSF build, compensation)
  kPhysicalDelete = 4, // undo-redo; also the CLR image of undo-of-insert
  kPseudoDelete = 5,   // redo-only (NSF deleter) or CLR: set the flag
  kReactivate = 6,     // undo-redo: clear the pseudo-delete flag
  kBatchInsert = 7,    // undo-redo: IB multi-key insert into one leaf
                       // (payload: a full-key entry blob, btree_page.h)
  kSplit = 8,          // NTA: page split (old + new + parent)
  kNewRoot = 9,        // NTA: tree grows a level
  kGcRemove = 10,      // redo-only: GC removal of a committed tombstone
};

// A key headed for the index: extracted <key value, RID>.
struct IndexKeyRef {
  std::string_view key;
  Rid rid;
};

// Payload codec for single-key log records: [flags][rid][klen][key].
void EncodeKeyPayload(std::string* out, uint8_t flags, std::string_view key,
                      const Rid& rid);
struct KeyPayload {
  uint8_t flags;
  Rid rid;
  std::string_view key;
};
Status DecodeKeyPayload(std::string_view in, KeyPayload* out);

// Observer of *logical* leaf-entry changes: one callback per entry
// inserted, physically removed, or flag-flipped, fired at every mutation
// choke point (forward ops, IB batch inserts, GC, and logical undo CLRs)
// while the leaf's X latch is still held — so the event stream is
// serialized per entry and exactly mirrors the tree's contents.  Page
// splits move entries without changing the logical set, so they emit
// nothing.  Recovery redo runs before observers are attached (the hash
// fragment repopulates from a scan afterwards).  Bulk loads bypass the
// tree's mutation paths; BulkLoader::Add notifies the observer itself,
// under its own leaf X latch.
//
// Implementations must be cheap and must only acquire locks ranked above
// kPageLatch (the hash fragment's kHashShard qualifies).
class IndexEntryObserver {
 public:
  virtual ~IndexEntryObserver() = default;
  virtual void OnLeafInsert(std::string_view key, const Rid& rid,
                            uint8_t flags) = 0;
  virtual void OnLeafRemove(std::string_view key, const Rid& rid) = 0;
  virtual void OnLeafSetFlags(std::string_view key, const Rid& rid,
                              uint8_t flags) = 0;
};

class BTree {
 public:
  enum class InsertResult {
    kInserted,        // physically added
    kReactivated,     // pseudo-deleted entry put back in inserted state
    kAlreadyPresent,  // exact live <key,RID> existed; nothing done
  };
  enum class DeleteResult {
    kPseudoDeleted,      // live entry marked deleted
    kTombstoneInserted,  // key was absent; pseudo-deleted key inserted
    kAlreadyPseudo,      // already marked; nothing done
  };
  struct LookupResult {
    bool found = false;
    bool pseudo_deleted = false;
  };
  struct ValueMatch {
    bool found = false;
    Rid rid;
    bool pseudo_deleted = false;
  };
  struct IbStats {
    uint64_t inserted = 0;
    uint64_t skipped_duplicates = 0;  // rejected <key,RID> duplicates
    uint64_t skipped_tombstones = 0;  // rejected: pseudo-deleted key found
    uint64_t splits = 0;
    uint64_t log_records = 0;
    uint64_t descents = 0;  // root-to-leaf traversals actually performed
  };
  // Called when an IB insert of `key` for `new_rid` finds an entry with an
  // equal key value under a different RID (`existing`); only invoked for
  // unique indexes.  Return OK to proceed with the insert, UniqueViolation
  // to abort the build, or any other error to propagate.
  using UniqueConflictFn = std::function<Status(
      std::string_view key, const Rid& existing_rid, bool existing_pseudo,
      const Rid& new_rid)>;

  BTree(IndexId id, BufferPool* pool, TransactionManager* txns,
        const Options* options)
      : index_id_(id), pool_(pool), txns_(txns), options_(options) {}

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Allocates the anchor page and an empty root leaf (NTA-logged).
  Status Create();
  // Opens an existing tree from its anchor page.
  Status Open(PageId anchor);

  IndexId index_id() const { return index_id_; }
  PageId anchor_page() const { return anchor_; }
  PageId root() const { return root_.load(); }

  // ---- transactional key operations ----

  // See InsertResult.  `flags` lets a deleter insert a tombstone directly
  // (kEntryPseudoDeleted); plain inserts pass 0.  `log_type` is kUpdate
  // for forward processing of a ready index.  Changes the heap record's
  // undo compensates pass kRedoOnly: an NSF transaction's insert into the
  // index being built, and the compensation inserts themselves (Figure 2
  // logical index undo), which must never be re-undone.
  StatusOr<InsertResult> Insert(
      Transaction* txn, std::string_view key, const Rid& rid,
      uint8_t flags = 0,
      LogRecordType log_type = LogRecordType::kUpdate);

  // Deleter logic of section 2.2.3 ("IB and Delete Operations"), for an
  // index an NSF build is creating.  Logged redo-only, tombstone insert
  // included: the heap record's undo compensates it (Figure 2).
  StatusOr<DeleteResult> PseudoDelete(Transaction* txn, std::string_view key,
                                      const Rid& rid);

  // Physical key removal (normal maintenance when no build is active, and
  // the CLR image of undo-of-insert).  NotFound if absent.  See Insert for
  // log_type.
  Status PhysicalDelete(Transaction* txn, std::string_view key,
                        const Rid& rid,
                        LogRecordType log_type = LogRecordType::kUpdate);

  // GC path (section 2.2.4): physically removes a pseudo-deleted entry,
  // redo-only logged (the deletion it garbage-collects is committed).
  Status GcRemove(std::string_view key, const Rid& rid);

  // ---- lookups ----

  StatusOr<LookupResult> Lookup(std::string_view key, const Rid& rid) const;
  // First entry whose key value equals `key` (unique-index support);
  // prefers a live entry over pseudo-deleted ones.
  StatusOr<ValueMatch> FindKeyValue(std::string_view key) const;

  // ---- index-builder interface (NSF) ----

  // Inserts `keys` (ascending <key,RID> order) on behalf of the builder
  // transaction.  Implements the multi-keys-per-call interface, remembered
  // path, duplicate rejection, IB split mode, and one log record per leaf
  // touched (section 2.2.3 / 2.3.1).
  Status IbInsertBatch(Transaction* txn, const std::vector<IndexKeyRef>& keys,
                       bool unique, const UniqueConflictFn& on_conflict,
                       IbStats* stats);

  // ---- scans & inspection ----

  // Walks all leaf entries in order: fn(key, rid, flags).  Latches one
  // leaf at a time.
  Status ScanAll(const std::function<void(std::string_view, const Rid&,
                                          uint8_t)>& fn) const;
  // Leaf page ids in leaf-chain order (clustering measurements, GC).
  Status CollectLeaves(std::vector<PageId>* out) const;

  uint64_t split_count() const { return splits_.load(); }

  // Logical undo dispatch (called by BtreeRm): reverses one key-operation
  // log record, writing CLRs; re-traverses from the root because keys may
  // have moved across pages (ARIES/IM-style logical undo).
  Status UndoKeyOp(Transaction* txn, const LogRecord& rec);

  // Attaches/detaches the logical entry observer (the hash fast path's
  // mirror).  The pointer must outlive the tree or be detached first;
  // attachment is atomic so it can happen while the tree is live.
  void set_entry_observer(IndexEntryObserver* obs) {
    observer_.store(obs, std::memory_order_release);
  }
  IndexEntryObserver* entry_observer() const {
    return observer_.load(std::memory_order_acquire);
  }

 private:
  friend class BtreeRm;
  friend class BulkLoader;

  // Latches the current root (shared or exclusive), validating the cached
  // root pointer after the latch is held.
  Status LatchRootRead(ReadPageGuard* out) const;

  // Read descent to the leaf that (key, rid) routes to.
  Status DescendToLeafRead(std::string_view key, const Rid& rid,
                           ReadPageGuard* out) const;
  // Optimistic write descent: S latches down, X latch on the leaf only.
  Status DescendToLeafWrite(std::string_view key, const Rid& rid,
                            WritePageGuard* out);
  // Exclusive upper bound of a leaf's key space, taken from the parent
  // separators along a descent.  `valid` is false on the rightmost edge
  // (no bound: the leaf covers everything above its low fence).
  struct KeyBound {
    std::string key;
    Rid rid;
    bool valid = false;
  };

  // Pessimistic write descent: X latches the path, releasing safe
  // ancestors; `path` holds root..leaf (only the unsafe suffix).  If
  // `high` is non-null it receives the leaf's true high fence — the
  // tightest parent separator above the descent edge.  IbInsertBatch
  // bounds its leaf runs with this rather than the right sibling's first
  // key: sibling content drifts (recovery undo or GC can physically
  // remove the sibling's first entry), the key-space partition does not.
  Status DescendPessimistic(std::string_view key, const Rid& rid,
                            std::vector<WritePageGuard>* path,
                            bool ib_mode = false, KeyBound* high = nullptr);

  // Ensures the leaf guarded by path->back() has room for an entry with
  // `key`; splits (and grows the root) as needed, re-routing so that on
  // return path->back() is the leaf where (key, rid) belongs and has room.
  // `ib_mode` applies the section 2.3.1 specialized split.
  Status MakeRoomInLeaf(std::vector<WritePageGuard>* path,
                        std::string_view key, const Rid& rid, bool ib_mode);

  // Splits the node at path index `idx` (path holds X guards from some
  // ancestor down to idx) at entry `split_at`, logs a kSplit NTA, and
  // applies it.  A leaf split at count() moves nothing and opens an empty
  // right sibling bounded below by the pending (key, rid) — the
  // bottom-up-mimicking append split and the "no higher keys" case of the
  // IB split (section 2.3.1); other splits ignore (key, rid).  Outputs the
  // new sibling's guard and the separator that now bounds it from below.
  // May grow the tree and/or split parents recursively; indices in `path`
  // stay aligned (a new root is inserted at the front).
  Status SplitNode(std::vector<WritePageGuard>* path, size_t* idx,
                   int split_at, std::string_view key, const Rid& rid,
                   WritePageGuard* new_guard, std::string* out_sep_key,
                   Rid* out_sep_rid);

  // Ensures path[idx-1] (the parent) can absorb a separator of sep_len
  // bytes, splitting it first if needed and re-aiming the guard at
  // whichever half will receive (sep_key, sep_rid).  `idx` is updated if
  // the tree grew.
  Status EnsureParentHasRoom(std::vector<WritePageGuard>* path, size_t* idx,
                             std::string_view sep_key, const Rid& sep_rid);

  // Grows the tree: makes a new root above the current path[0] (which must
  // be the old root), inserting the new root guard at path->begin().
  Status GrowRoot(std::vector<WritePageGuard>* path);

  // Logs, then applies, one leaf entry change (kInsertKey, kPseudoDelete,
  // kReactivate, kPhysicalDelete or kGcRemove) on the X-latched `leaf`,
  // and notifies the entry observer.  Forward ops pass their log type; a
  // CLR passes kClr and its undo_next.
  Status LogKeyOp(Transaction* txn, WritePageGuard* leaf, BtreeOp op,
                  const KeyPayload& kp, LogRecordType type,
                  Lsn undo_next = kInvalidLsn);
  // Logs kInitAnchor naming `root`, writes it into the X-latched anchor
  // and publishes it (Create, BulkLoader::Finish).
  Status SetRoot(WritePageGuard* anchor, PageId root);
  LogRecord NewRecord(BtreeOp op, PageId page,
                      LogRecordType type = LogRecordType::kRedoOnly) const;

  size_t page_size() const { return pool_->disk()->page_size(); }
  size_t LeafSoftCapacity() const;  // fill-factor-limited bytes for IB
  // IB fill factor (section 2.2.3): whether `leaf` admits an entry of
  // `key_len` key bytes and stays within LeafSoftCapacity().  Measured
  // logically, so the fill factor does not depend on compression; an
  // empty leaf always admits.
  bool WithinFillFactor(const BTreePage& leaf, size_t key_len) const;

  // Observer notification helpers (called with the leaf X latch held,
  // immediately after the page mutation they describe).
  void NotifyInsert(std::string_view key, const Rid& rid, uint8_t flags) {
    if (IndexEntryObserver* o = entry_observer()) {
      o->OnLeafInsert(key, rid, flags);
    }
  }
  void NotifyRemove(std::string_view key, const Rid& rid) {
    if (IndexEntryObserver* o = entry_observer()) o->OnLeafRemove(key, rid);
  }
  void NotifySetFlags(std::string_view key, const Rid& rid, uint8_t flags) {
    if (IndexEntryObserver* o = entry_observer()) {
      o->OnLeafSetFlags(key, rid, flags);
    }
  }

  IndexId index_id_;
  BufferPool* pool_;
  TransactionManager* txns_;
  const Options* options_;

  PageId anchor_ = kInvalidPageId;
  std::atomic<PageId> root_{kInvalidPageId};
  std::atomic<uint64_t> splits_{0};
  std::atomic<IndexEntryObserver*> observer_{nullptr};
};

// Recovery handler for all B+-trees.  Redo is physical per page; undo is
// logical and needs the live tree object, found through the resolver
// (index id -> BTree*), because keys may have moved across pages.
class BtreeRm : public ResourceManager {
 public:
  using TreeResolver = std::function<BTree*(IndexId)>;

  BtreeRm(BufferPool* pool, TransactionManager* txns)
      : pool_(pool), txns_(txns) {}

  void SetResolver(TreeResolver resolver) { resolver_ = std::move(resolver); }

  RmId rm_id() const override { return RmId::kBtree; }
  Status Redo(const LogRecord& rec) override;
  Status Undo(Transaction* txn, const LogRecord& rec) override;

 private:
  BufferPool* pool_;
  TransactionManager* txns_;
  TreeResolver resolver_;
};

}  // namespace oib

#endif  // OIB_BTREE_BTREE_H_
