// Write-ahead log records.
//
// Record taxonomy follows the paper's recovery assumptions (section 1.1):
//  * kUpdate    — undo-redo record (both payloads present)
//  * kRedoOnly  — redo-only record (e.g., side-file appends, SMO/NTAs, an
//                 NSF transaction's key changes to the index being built,
//                 which rollback compensates from the heap record)
//  * kClr       — compensation record written during rollback; redo-only,
//                 carries undo_next_lsn
// plus transaction control records and a fuzzy-checkpoint record.
//
// Each data record names a resource manager (heap / B+-tree / side-file)
// and an RM-private opcode; the recovery manager dispatches redo/undo to
// handlers registered per RM.

#ifndef OIB_WAL_LOG_RECORD_H_
#define OIB_WAL_LOG_RECORD_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace oib {

enum class LogRecordType : uint8_t {
  kUpdate = 1,
  kRedoOnly = 2,
  kClr = 4,
  kBegin = 5,
  kCommit = 6,
  kAbort = 7,  // rollback completed
  kCheckpoint = 8,
};

enum class RmId : uint8_t {
  kNone = 0,
  kHeap = 1,
  kBtree = 2,
  kSideFile = 3,
};

struct LogRecord {
  Lsn lsn = kInvalidLsn;        // assigned by LogManager on append
  Lsn prev_lsn = kInvalidLsn;   // previous record of the same transaction
  TxnId txn_id = kInvalidTxnId;
  LogRecordType type = LogRecordType::kUpdate;
  RmId rm_id = RmId::kNone;
  uint8_t opcode = 0;           // RM-private operation code
  PageId page_id = kInvalidPageId;  // primary page affected (redo target)
  uint32_t aux_id = 0;          // RM-private (e.g., table id or index id)
  Lsn undo_next_lsn = kInvalidLsn;  // CLR only: next record to undo
  std::string redo;             // RM-private redo payload
  std::string undo;             // RM-private undo payload

  bool RequiresRedo() const {
    return type == LogRecordType::kUpdate ||
           type == LogRecordType::kRedoOnly || type == LogRecordType::kClr;
  }
  bool RequiresUndo() const { return type == LogRecordType::kUpdate; }

  void SerializeTo(std::string* out) const;
  static Status DeserializeFrom(std::string_view in, LogRecord* out);

  std::string ToString() const;
};

}  // namespace oib

#endif  // OIB_WAL_LOG_RECORD_H_
