#include "txn/transaction_manager.h"

namespace oib {

Transaction* TransactionManager::Begin() {
  TxnId id = next_txn_id_.fetch_add(1);
  auto txn = std::make_unique<Transaction>(id);
  Transaction* raw = txn.get();
  {
    sync::MutexLock g(&mu_);
    active_[id] = std::move(txn);
  }
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = id;
  // A Begin record is a fixed-size header that always fits the ring, and
  // Begin() has no error channel; a failure would only repeat on the first
  // real append, which does propagate.
  (void)AppendLog(raw, &rec);
  return raw;
}

Status TransactionManager::Commit(Transaction* txn) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  OIB_RETURN_IF_ERROR(AppendLog(txn, &rec));
  // Force the log at commit (WAL durability rule).
  OIB_RETURN_IF_ERROR(log_->Flush(rec.lsn));
  txn->set_state(TxnState::kCommitted);
  locks_->ReleaseAll(txn->id());
  commits_.fetch_add(1);
  End(txn);
  return Status::OK();
}

Status TransactionManager::Rollback(Transaction* txn) {
  txn->set_state(TxnState::kRollingBack);
  Status s = UndoChain(txn);
  if (!s.ok()) return s;
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  OIB_RETURN_IF_ERROR(AppendLog(txn, &rec));
  txn->set_state(TxnState::kAborted);
  locks_->ReleaseAll(txn->id());
  aborts_.fetch_add(1);
  End(txn);
  return Status::OK();
}

Status TransactionManager::UndoChain(Transaction* txn) {
  Lsn cur = txn->last_lsn();
  while (cur != kInvalidLsn) {
    LogRecord rec;
    OIB_RETURN_IF_ERROR(log_->ReadRecord(cur, &rec));
    switch (rec.type) {
      case LogRecordType::kClr:
        cur = rec.undo_next_lsn;
        break;
      case LogRecordType::kBegin:
        return Status::OK();
      case LogRecordType::kUpdate: {
        ResourceManager* rm = rms_->Get(rec.rm_id);
        if (rm == nullptr) {
          return Status::Corruption("no RM for undo dispatch");
        }
        OIB_RETURN_IF_ERROR(rm->Undo(txn, rec));
        cur = rec.prev_lsn;
        break;
      }
      default:
        cur = rec.prev_lsn;
        break;
    }
  }
  return Status::OK();
}

Status TransactionManager::AppendLog(Transaction* txn, LogRecord* rec) {
  if (txn != nullptr) {
    rec->txn_id = txn->id();
    rec->prev_lsn = txn->last_lsn();
  }
  OIB_RETURN_IF_ERROR(log_->Append(rec));
  if (txn != nullptr) txn->set_last_lsn(rec->lsn);
  return Status::OK();
}

Status TransactionManager::AppendClr(Transaction* txn,
                                     const LogRecord& undone,
                                     LogRecord* rec) {
  rec->type = LogRecordType::kClr;
  rec->undo_next_lsn = undone.prev_lsn;
  return AppendLog(txn, rec);
}

Transaction* TransactionManager::AdoptLoser(TxnId id, Lsn last_lsn) {
  auto txn = std::make_unique<Transaction>(id);
  txn->set_last_lsn(last_lsn);
  Transaction* raw = txn.get();
  sync::MutexLock g(&mu_);
  active_[id] = std::move(txn);
  return raw;
}

void TransactionManager::End(Transaction* txn) {
  sync::MutexLock g(&mu_);
  active_.erase(txn->id());
}

std::vector<std::pair<TxnId, Lsn>> TransactionManager::ActiveTransactions()
    const {
  sync::MutexLock g(&mu_);
  std::vector<std::pair<TxnId, Lsn>> out;
  out.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    out.emplace_back(id, txn->last_lsn());
  }
  return out;
}

void TransactionManager::BumpNextTxnId(TxnId floor) {
  TxnId cur = next_txn_id_.load();
  while (cur <= floor && !next_txn_id_.compare_exchange_weak(cur, floor + 1)) {
  }
}

}  // namespace oib
