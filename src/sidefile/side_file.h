// SideFile: the append-only table at the heart of the SF algorithm
// (paper section 3).
//
// While the index builder is active, transactions append tuples
// <operation, key, RID> describing key inserts and deletes for the index
// under construction, *without locking the appended entries*; appends are
// redo-only logged.  After the bottom-up build, IB drains the side-file
// from the beginning, applying each entry to the index as a normal
// transaction would.
//
// Entries live in a chain of slotted pages, grown by the heap's
// AppendChainPage: a new page's format and link are logged as the heap
// RM's kFormat / kLink records.  The side-file RM logs only the appends,
// whose redo is the heap's slot insert (ApplyRecordChange).  The drain
// position is a (page, slot) cursor; IB checkpoints it so a restart
// resumes where it left off (section 3.2.5).

#ifndef OIB_SIDEFILE_SIDE_FILE_H_
#define OIB_SIDEFILE_SIDE_FILE_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"

namespace oib {

enum class SideFileOp : uint8_t {
  kInsertKey = 1,
  kDeleteKey = 2,
};

// Side-file RM opcodes (chain growth is logged by the heap RM).
enum class SfOp : uint8_t {
  kAppend = 1,  // payload: [slot u16][entry]
};

class SideFile {
 public:
  struct Entry {
    SideFileOp op;
    std::string key;
    Rid rid;
  };
  struct Cursor {
    PageId page = kInvalidPageId;
    SlotId slot = 0;  // next slot to read on `page`
  };

  SideFile(IndexId index, BufferPool* pool, TransactionManager* txns)
      : index_id_(index), pool_(pool), txns_(txns) {}

  SideFile(const SideFile&) = delete;
  SideFile& operator=(const SideFile&) = delete;

  Status Create();
  Status Open(PageId first);

  PageId first_page() const { return first_page_; }
  IndexId index_id() const { return index_id_; }

  // Appends one entry (redo-only logged on txn's chain; never undone —
  // rollback appends *new* inverse entries instead, section 3.2.3).
  Status Append(Transaction* txn, SideFileOp op, std::string_view key,
                const Rid& rid);

  // Reads up to `max` entries from *cursor, advancing it.  Returns the
  // number read (0 = caught up with the appenders).
  StatusOr<size_t> ReadBatch(Cursor* cursor, size_t max,
                             std::vector<Entry>* out) const;

  Cursor Begin() const { return Cursor{first_page_, 0}; }

  uint64_t entries_appended() const { return appended_.load(); }
  size_t page_count() const;

 private:
  StatusOr<PageId> ExtendChain();

  IndexId index_id_;
  BufferPool* pool_;
  TransactionManager* txns_;
  PageId first_page_ = kInvalidPageId;
  std::atomic<PageId> tail_page_{kInvalidPageId};
  std::atomic<uint64_t> appended_{0};
  // Serializes chain extension.  The appender's own tail guard is always
  // released before taking this, but the Figure 2 undo hook appends with
  // the undone *data* page still latched, while ExtendChain latches
  // side-file pages under this mutex — a benign crossing over disjoint
  // page sets, so the rank is EXEMPT from order checking (common/sync.h).
  sync::Mutex extend_mu_{sync::LockRank::kSideFileExtend,
                         "sidefile.extend_mu"};
  mutable sync::Mutex count_mu_{sync::LockRank::kSideFileCount,
                                "sidefile.count_mu"};
  size_t page_count_ OIB_GUARDED_BY(count_mu_) = 0;
};

// Recovery handler: physical redo only (appends are never undone).
class SideFileRm : public ResourceManager {
 public:
  explicit SideFileRm(BufferPool* pool) : pool_(pool) {}

  RmId rm_id() const override { return RmId::kSideFile; }
  Status Redo(const LogRecord& rec) override;
  Status Undo(Transaction* txn, const LogRecord& rec) override;

 private:
  BufferPool* pool_;
};

// Entry codec (shared with recovery): [op u8][rid u32+u16][key bytes].
void EncodeSideFileEntry(std::string* out, SideFileOp op,
                         std::string_view key, const Rid& rid);
Status DecodeSideFileEntry(std::string_view in, SideFile::Entry* out);

}  // namespace oib

#endif  // OIB_SIDEFILE_SIDE_FILE_H_
