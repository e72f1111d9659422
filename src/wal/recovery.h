// RecoveryManager: restart recovery (analysis + redo + undo).
//
// A single forward pass over the durable log performs analysis (rebuilding
// the active-transaction table) and redo (repeating history, guarded by
// page LSNs); loser transactions are then rolled back through the normal
// undo path, writing CLRs.  Recovery can start from a checkpoint: the
// engine notes the log end, flushes all dirty pages, logs a Checkpoint
// record carrying the active-transaction table and that redo start, and
// stores the record's LSN in disk metadata.
//
// This is the machinery the paper leans on when it argues that logging by
// IB (NSF) or during side-file processing (SF) leaves the index
// "structurally consistent after restart" (sections 2.2.3, 3.2.4).

#ifndef OIB_WAL_RECOVERY_H_
#define OIB_WAL_RECOVERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/resource_manager.h"

namespace oib {

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t loser_txns = 0;
  // Wall-clock, in Engine::Restart order: engine construction and the
  // master-LSN read (open); the forward analysis pass, redo included;
  // re-opening catalog objects (catalog_load: heap chains, trees, hash
  // repopulation, side-files); re-registering interrupted builds
  // (reattach); and loser rollback.
  uint64_t open_ns = 0;
  uint64_t analysis_ns = 0;
  // Always 0: redo runs inside the analysis pass and is counted in
  // analysis_ns.  Kept only because perfbench reports it as
  // recovery.redo_ms.
  uint64_t redo_ns = 0;
  uint64_t catalog_load_ns = 0;
  uint64_t reattach_ns = 0;
  uint64_t undo_ns = 0;
};

// Serialization helpers for the Checkpoint record payload: the
// active-transaction table plus the redo start, the log end observed
// before the checkpoint flushed the pool.  Records appended while the
// pool was being flushed may touch pages it had already written, so redo
// (and analysis, seeded from the table) starts there, not at the
// checkpoint record.
std::string EncodeCheckpointPayload(
    const std::vector<std::pair<TxnId, Lsn>>& active, Lsn redo_start);
Status DecodeCheckpointPayload(const std::string& payload,
                               std::vector<std::pair<TxnId, Lsn>>* active,
                               Lsn* redo_start);

class RecoveryManager {
 public:
  RecoveryManager(LogManager* log, TransactionManager* txns, RmRegistry* rms)
      : log_(log), txns_(txns), rms_(rms) {}

  // Phase 1+2: analysis and redo in one forward pass.  `checkpoint_lsn` is
  // the LSN of the last sharp checkpoint record, or kInvalidLsn to scan the
  // whole log.  Outputs the loser transactions (id, last_lsn).
  Status AnalyzeAndRedo(Lsn checkpoint_lsn,
                        std::vector<std::pair<TxnId, Lsn>>* losers,
                        RecoveryStats* stats = nullptr);

  // Phase 3: rolls back the losers.  Called after the engine has re-opened
  // catalog objects, because B+-tree undo is logical and needs live tree
  // objects to traverse.
  Status UndoLosers(const std::vector<std::pair<TxnId, Lsn>>& losers,
                    RecoveryStats* stats = nullptr);

 private:
  LogManager* log_;
  TransactionManager* txns_;
  RmRegistry* rms_;
};

}  // namespace oib

#endif  // OIB_WAL_RECOVERY_H_
