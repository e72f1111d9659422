#include "wal/recovery.h"

#include <algorithm>
#include <map>
#include <thread>

#include "common/coding.h"
#include "obs/trace.h"

namespace oib {

namespace {

// Fibonacci-hash page -> partition so hot page-id ranges spread evenly.
inline size_t PagePartition(PageId page, size_t n) {
  uint64_t h = uint64_t(page) * 0x9e3779b97f4a7c15ULL;
  return size_t((h >> 32) % n);
}

}  // namespace

std::string EncodeCheckpointPayload(
    const std::vector<std::pair<TxnId, Lsn>>& active, Lsn redo_start) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(active.size()));
  for (const auto& [id, lsn] : active) {
    PutFixed64(&out, id);
    PutFixed64(&out, lsn);
  }
  PutFixed64(&out, redo_start);
  return out;
}

Status DecodeCheckpointPayload(const std::string& payload,
                               std::vector<std::pair<TxnId, Lsn>>* active,
                               Lsn* redo_start) {
  BufferReader r(payload);
  uint32_t n;
  if (!r.GetFixed32(&n)) return Status::Corruption("checkpoint payload");
  active->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t id, lsn;
    if (!r.GetFixed64(&id) || !r.GetFixed64(&lsn)) {
      return Status::Corruption("checkpoint payload entry");
    }
    active->emplace_back(id, lsn);
  }
  uint64_t start;
  if (!r.GetFixed64(&start)) return Status::Corruption("checkpoint payload");
  *redo_start = start;
  return Status::OK();
}

Status RecoveryManager::AnalyzeAndRedo(
    Lsn checkpoint_lsn, std::vector<std::pair<TxnId, Lsn>>* losers,
    RecoveryStats* stats) {
  RecoveryStats local;
  local.redo_threads = redo_threads_;
  std::map<TxnId, Lsn> txn_table;  // active (potential loser) transactions
  TxnId max_txn_seen = 0;

  Lsn scan_start = kInvalidLsn;
  if (checkpoint_lsn != kInvalidLsn) {
    LogRecord ckpt;
    OIB_RETURN_IF_ERROR(log_->ReadRecord(checkpoint_lsn, &ckpt));
    if (ckpt.type != LogRecordType::kCheckpoint) {
      return Status::Corruption("checkpoint LSN does not name a checkpoint");
    }
    std::vector<std::pair<TxnId, Lsn>> active;
    OIB_RETURN_IF_ERROR(
        DecodeCheckpointPayload(ckpt.redo, &active, &scan_start));
    // The table was read while transactions ran, so an entry can lag its
    // transaction by a record (the commit it logged before it left the
    // table, or an append whose LSN it had not stored yet).  Scanning from
    // the oldest entry's LSN sees every such record; redo of records that
    // are already on their pages is skipped by the page-LSN guard.
    for (const auto& [id, lsn] : active) {
      txn_table[id] = lsn;
      max_txn_seen = std::max(max_txn_seen, id);
      if (lsn != kInvalidLsn) scan_start = std::min(scan_start, lsn);
    }
  }

  // Analysis pass; with one redo thread this is also the redo pass
  // (interleaving is safe because every redo is guarded by a page-LSN
  // comparison inside the RM).  With more, redo records are collected —
  // one in-memory copy of the replayed log suffix — and partitioned
  // across workers afterwards.
  const bool parallel = redo_threads_ > 1;
  std::vector<LogRecord> redo_recs;
  uint64_t t0 = obs::MonotonicNanos();
  Status inner = Status::OK();
  OIB_RETURN_IF_ERROR(log_->ScanDurable(
      scan_start, [&](const LogRecord& rec) {
        ++local.records_scanned;
        if (rec.txn_id != kInvalidTxnId) {
          max_txn_seen = std::max(max_txn_seen, rec.txn_id);
          switch (rec.type) {
            case LogRecordType::kCommit:
            case LogRecordType::kAbort:
              txn_table.erase(rec.txn_id);
              break;
            default:
              txn_table[rec.txn_id] = rec.lsn;
              break;
          }
        }
        if (rec.RequiresRedo() && rec.rm_id != RmId::kNone) {
          if (parallel) {
            redo_recs.push_back(rec);
            return true;
          }
          ResourceManager* rm = rms_->Get(rec.rm_id);
          if (rm == nullptr) {
            inner = Status::Corruption("no RM for redo dispatch");
            return false;
          }
          Status s = rm->Redo(rec);
          if (!s.ok()) {
            inner = s;
            return false;
          }
          ++local.records_redone;
        }
        return true;
      }));
  OIB_RETURN_IF_ERROR(inner);
  local.analysis_ns = obs::MonotonicNanos() - t0;

  if (parallel && !redo_recs.empty()) {
    t0 = obs::MonotonicNanos();
    OIB_RETURN_IF_ERROR(ApplyRedoPartitioned(redo_recs, &local));
    redo_recs = {};  // freeing the collected copy is part of the replay
    local.redo_ns = obs::MonotonicNanos() - t0;
  }

  txns_->BumpNextTxnId(max_txn_seen);

  losers->clear();
  for (const auto& [id, last_lsn] : txn_table) {
    losers->emplace_back(id, last_lsn);
  }
  local.loser_txns = losers->size();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status RecoveryManager::ApplyRedoPartitioned(
    const std::vector<LogRecord>& recs, RecoveryStats* stats) {
  const size_t n = redo_threads_;
  std::vector<std::vector<const LogRecord*>> parts(n);

  auto apply_list = [this](const std::vector<const LogRecord*>& list)
      -> Status {
    for (const LogRecord* rec : list) {
      ResourceManager* rm = rms_->Get(rec->rm_id);
      if (rm == nullptr) return Status::Corruption("no RM for redo dispatch");
      OIB_RETURN_IF_ERROR(rm->Redo(*rec));
    }
    return Status::OK();
  };
  // Drains every partition (concurrently) and empties them.  Called at
  // each barrier and at the end of the record list.
  auto run_parts = [&]() -> Status {
    size_t busy = 0;
    for (const auto& p : parts) busy += p.empty() ? 0 : 1;
    if (busy == 0) return Status::OK();
    Status first_error;
    if (busy == 1) {
      // One populated partition: skip the thread spawn.
      for (auto& p : parts) {
        if (!p.empty() && first_error.ok()) first_error = apply_list(p);
      }
    } else {
      std::vector<Status> results(n);
      std::vector<std::thread> workers;
      for (size_t i = 0; i < n; ++i) {
        if (parts[i].empty()) continue;
        workers.emplace_back(
            [&results, &parts, &apply_list, i] {
              results[i] = apply_list(parts[i]);
            });
      }
      for (auto& w : workers) w.join();
      for (const Status& s : results) {
        if (!s.ok()) {
          first_error = s;
          break;
        }
      }
    }
    for (auto& p : parts) p.clear();
    return first_error;
  };

  std::vector<PageId> pages;
  for (const LogRecord& rec : recs) {
    ResourceManager* rm = rms_->Get(rec.rm_id);
    if (rm == nullptr) return Status::Corruption("no RM for redo dispatch");
    rm->RedoPageSet(rec, &pages);
    if (pages.size() == 1) {
      parts[PagePartition(pages[0], n)].push_back(&rec);
    } else {
      // Multi-page record: barrier.  Everything logged before it must be
      // applied first (its pages may appear in several partitions), then
      // it runs serially.
      OIB_RETURN_IF_ERROR(run_parts());
      OIB_RETURN_IF_ERROR(rm->Redo(rec));
      ++stats->redo_barriers;
    }
  }
  OIB_RETURN_IF_ERROR(run_parts());
  stats->records_redone += recs.size();
  return Status::OK();
}

Status RecoveryManager::UndoLosers(
    const std::vector<std::pair<TxnId, Lsn>>& losers, RecoveryStats* stats) {
  uint64_t t0 = obs::MonotonicNanos();
  // Each transaction's chain is independent, so per-txn rollback order
  // does not matter.
  for (const auto& [id, last_lsn] : losers) {
    Transaction* loser = txns_->AdoptLoser(id, last_lsn);
    OIB_RETURN_IF_ERROR(txns_->Rollback(loser));
  }
  if (stats != nullptr) {
    stats->loser_txns = losers.size();
    stats->undo_ns = obs::MonotonicNanos() - t0;
  }
  OIB_RETURN_IF_ERROR(log_->FlushAll());
  return Status::OK();
}

}  // namespace oib
