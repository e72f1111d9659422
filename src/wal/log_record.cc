#include "wal/log_record.h"

#include "common/coding.h"

namespace oib {

void LogRecord::SerializeTo(std::string* out) const {
  PutFixed64(out, prev_lsn);
  PutFixed64(out, txn_id);
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(rm_id));
  out->push_back(static_cast<char>(opcode));
  PutFixed32(out, page_id);
  PutFixed32(out, aux_id);
  PutFixed64(out, undo_next_lsn);
  PutLengthPrefixed(out, redo);
  PutLengthPrefixed(out, undo);
}

Status LogRecord::DeserializeFrom(std::string_view in, LogRecord* out) {
  BufferReader r(in);
  uint8_t type_byte, rm_byte, opcode;
  if (!r.GetFixed64(&out->prev_lsn) || !r.GetFixed64(&out->txn_id) ||
      !r.GetByte(&type_byte) || !r.GetByte(&rm_byte) ||
      !r.GetByte(&opcode) || !r.GetFixed32(&out->page_id) ||
      !r.GetFixed32(&out->aux_id) || !r.GetFixed64(&out->undo_next_lsn) ||
      !r.GetLengthPrefixed(&out->redo) || !r.GetLengthPrefixed(&out->undo)) {
    return Status::Corruption("truncated log record");
  }
  out->type = static_cast<LogRecordType>(type_byte);
  out->rm_id = static_cast<RmId>(rm_byte);
  out->opcode = opcode;
  return Status::OK();
}

std::string LogRecord::ToString() const {
  static const char* kTypeNames[] = {"?",      "Update", "RedoOnly",
                                     "?",      "CLR",    "Begin",
                                     "Commit", "Abort",  "Checkpoint"};
  std::string s = "LogRecord{lsn=" + std::to_string(lsn) +
                  " prev=" + std::to_string(prev_lsn) +
                  " txn=" + std::to_string(txn_id) + " type=";
  int t = static_cast<int>(type);
  s += (t >= 1 && t <= 8) ? kTypeNames[t] : "?";
  s += " rm=" + std::to_string(static_cast<int>(rm_id));
  s += " op=" + std::to_string(static_cast<int>(opcode));
  s += " page=" + std::to_string(page_id);
  s += " redo=" + std::to_string(redo.size()) + "B";
  s += " undo=" + std::to_string(undo.size()) + "B}";
  return s;
}

}  // namespace oib
