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
// With redo_threads > 1 the pass splits in two: analysis collects the
// redo work list, then workers replay it partitioned by page id.  All of
// a page's records hash to the same partition, so per-page LSN order is
// untouched; records whose redo spans pages (ResourceManager::
// RedoPageSet returns > 1 — B+-tree splits and root growth) are barriers:
// every partition finishes the records before them, the barrier record is
// applied serially, and the partitions resume.  Page-LSN guards keep the
// replay idempotent either way, so single- and multi-threaded redo
// produce identical pages.
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
  // Redo parallelism actually used and the serial barriers hit
  // (multi-page records; see file comment).
  size_t redo_threads = 1;
  uint64_t redo_barriers = 0;
  // Wall-clock, in Engine::Restart order: engine construction and the
  // master-LSN read (open); the analysis scan (which includes redo itself
  // when redo_threads == 1, collection only otherwise); the partitioned
  // replay (0 when serial); re-opening catalog objects (catalog_load:
  // heap chains, trees, hash repopulation, side-files); re-registering
  // interrupted builds (reattach); and loser rollback.
  uint64_t open_ns = 0;
  uint64_t analysis_ns = 0;
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
  RecoveryManager(LogManager* log, TransactionManager* txns, RmRegistry* rms,
                  size_t redo_threads = 1)
      : log_(log),
        txns_(txns),
        rms_(rms),
        redo_threads_(redo_threads > 0 ? redo_threads : 1) {}

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
  // Replays `recs` across redo_threads_ partitions (see file comment).
  Status ApplyRedoPartitioned(const std::vector<LogRecord>& recs,
                              RecoveryStats* stats);

  LogManager* log_;
  TransactionManager* txns_;
  RmRegistry* rms_;
  size_t redo_threads_;
};

}  // namespace oib

#endif  // OIB_WAL_RECOVERY_H_
