// ResourceManager: per-subsystem redo/undo dispatch for log records.
//
// Each logged subsystem (heap, B+-tree, side-file) registers one handler.
// Redo is page-oriented and idempotent (guarded by page-LSN comparison
// inside the handler).  Undo is logical where the paper requires it (index
// keys may have moved due to splits, so key undo re-traverses the tree) and
// writes compensation records via the transaction's log chain.

#ifndef OIB_WAL_RESOURCE_MANAGER_H_
#define OIB_WAL_RESOURCE_MANAGER_H_

#include <array>

#include "common/status.h"
#include "common/types.h"
#include "wal/log_record.h"

namespace oib {

class Transaction;

class ResourceManager {
 public:
  virtual ~ResourceManager() = default;

  virtual RmId rm_id() const = 0;

  // Replays `rec` if the affected page(s) carry an older page LSN.
  virtual Status Redo(const LogRecord& rec) = 0;

  // Reverses `rec`'s effect on behalf of `txn`, writing a CLR whose
  // undo_next_lsn is rec.prev_lsn.
  virtual Status Undo(Transaction* txn, const LogRecord& rec) = 0;
};

class RmRegistry {
 public:
  void Register(ResourceManager* rm) {
    rms_[static_cast<size_t>(rm->rm_id())] = rm;
  }

  ResourceManager* Get(RmId id) const {
    size_t i = static_cast<size_t>(id);
    return i < rms_.size() ? rms_[i] : nullptr;
  }

 private:
  std::array<ResourceManager*, 4> rms_{};
};

}  // namespace oib

#endif  // OIB_WAL_RESOURCE_MANAGER_H_
