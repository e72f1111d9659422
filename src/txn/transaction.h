// Transaction: identity, state, and the per-transaction log-record chain.
//
// The chain (last_lsn -> prev_lsn -> ... -> Begin) drives rollback; CLRs
// written during rollback link past already-undone records via
// undo_next_lsn, exactly as in ARIES.

#ifndef OIB_TXN_TRANSACTION_H_
#define OIB_TXN_TRANSACTION_H_

#include <atomic>

#include "common/types.h"

namespace oib {

enum class TxnState {
  kActive,
  kCommitted,
  kAborted,
  kRollingBack,
};

class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }

  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  // Written only by the transaction's own thread; Engine::Checkpoint
  // reads it from another thread for the active-transaction table.
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_relaxed); }
  void set_last_lsn(Lsn lsn) {
    last_lsn_.store(lsn, std::memory_order_relaxed);
  }

 private:
  TxnId id_;
  TxnState state_ = TxnState::kActive;
  std::atomic<Lsn> last_lsn_{kInvalidLsn};
};

}  // namespace oib

#endif  // OIB_TXN_TRANSACTION_H_
