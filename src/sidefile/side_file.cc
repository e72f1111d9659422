#include "sidefile/side_file.h"

#include "common/coding.h"
#include "heap/heap_file.h"

namespace oib {

void EncodeSideFileEntry(std::string* out, SideFileOp op,
                         std::string_view key, const Rid& rid) {
  out->push_back(static_cast<char>(op));
  PutFixed32(out, rid.page);
  PutFixed16(out, rid.slot);
  out->append(key.data(), key.size());
}

Status DecodeSideFileEntry(std::string_view in, SideFile::Entry* out) {
  if (in.size() < 7) return Status::Corruption("side-file entry");
  out->op = static_cast<SideFileOp>(static_cast<uint8_t>(in[0]));
  out->rid.page = DecodeFixed32(in.data() + 1);
  out->rid.slot = DecodeFixed16(in.data() + 5);
  out->key.assign(in.data() + 7, in.size() - 7);
  return Status::OK();
}

Status SideFile::Create() {
  auto id = AppendChainPage(pool_, txns_, index_id_, PageType::kSideFile,
                            kInvalidPageId);
  if (!id.ok()) return id.status();
  first_page_ = *id;
  tail_page_.store(*id);
  {
    sync::MutexLock g(&count_mu_);
    page_count_ = 1;
  }
  return Status::OK();
}

Status SideFile::Open(PageId first) {
  first_page_ = first;
  PageId cur = first;
  PageId tail = first;
  size_t count = 0;
  uint64_t entries = 0;
  while (cur != kInvalidPageId) {
    auto guard = pool_->FetchRead(cur);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(const_cast<char*>(guard->data()),
                   pool_->disk()->page_size());
    if (sp.type() != PageType::kSideFile || sp.next_page() == cur) {
      return Status::Corruption("broken side-file chain at page " +
                                std::to_string(cur));
    }
    entries += sp.slot_count();
    ++count;
    tail = cur;
    cur = sp.next_page();
  }
  tail_page_.store(tail);
  appended_.store(entries);
  sync::MutexLock g(&count_mu_);
  page_count_ = count;
  return Status::OK();
}

StatusOr<PageId> SideFile::ExtendChain() {
  auto id = AppendChainPage(pool_, txns_, index_id_, PageType::kSideFile,
                            tail_page_.load());
  if (!id.ok()) return id.status();
  tail_page_.store(*id);
  {
    sync::MutexLock g(&count_mu_);
    ++page_count_;
  }
  return *id;
}

Status SideFile::Append(Transaction* txn, SideFileOp op,
                        std::string_view key, const Rid& rid) {
  std::string entry;
  EncodeSideFileEntry(&entry, op, key, rid);
  for (;;) {
    PageId tail = tail_page_.load();
    auto guard = pool_->FetchWrite(tail);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());
    // Appends must land in slot order on the tail; a page that has been
    // extended past is never appended to again.
    if (tail != tail_page_.load()) continue;
    SlotId slot = sp.slot_count();
    Status ins = ApplyRecordChange(&sp, HeapOp::kInsert, slot, entry);
    if (ins.ok()) {
      LogRecord rec;
      rec.type = LogRecordType::kRedoOnly;
      rec.rm_id = RmId::kSideFile;
      rec.opcode = static_cast<uint8_t>(SfOp::kAppend);
      rec.page_id = tail;
      rec.aux_id = index_id_;
      PutFixed16(&rec.redo, slot);
      rec.redo.append(entry);
      OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
      guard->set_page_lsn(rec.lsn);
      appended_.fetch_add(1);
      return Status::OK();
    }
    if (!ins.IsBusy()) return ins;
    guard->Release();
    sync::MutexLock ext(&extend_mu_);
    if (tail == tail_page_.load()) {
      auto extended = ExtendChain();
      if (!extended.ok()) return extended.status();
    }
  }
}

StatusOr<size_t> SideFile::ReadBatch(Cursor* cursor, size_t max,
                                     std::vector<Entry>* out) const {
  out->clear();
  while (out->size() < max && cursor->page != kInvalidPageId) {
    auto guard = pool_->FetchRead(cursor->page);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(const_cast<char*>(guard->data()),
                   pool_->disk()->page_size());
    uint16_t n = sp.slot_count();
    while (cursor->slot < n && out->size() < max) {
      auto rec = sp.Get(cursor->slot);
      if (rec.ok()) {
        Entry e;
        OIB_RETURN_IF_ERROR(DecodeSideFileEntry(*rec, &e));
        out->push_back(std::move(e));
      }
      ++cursor->slot;
    }
    if (cursor->slot >= n) {
      PageId next = sp.next_page();
      if (next == kInvalidPageId) break;  // caught up on the tail
      cursor->page = next;
      cursor->slot = 0;
    }
  }
  return out->size();
}

size_t SideFile::page_count() const {
  sync::MutexLock g(&count_mu_);
  return page_count_;
}

Status SideFileRm::Redo(const LogRecord& rec) {
  if (static_cast<SfOp>(rec.opcode) != SfOp::kAppend) {
    return Status::Corruption("unknown side-file redo opcode");
  }
  BufferReader r(rec.redo);
  uint16_t slot;
  if (!r.GetFixed16(&slot)) return Status::Corruption("sf append redo");
  auto guard = pool_->FetchWrite(rec.page_id);
  if (!guard.ok()) return guard.status();
  if (guard->page_lsn() >= rec.lsn) return Status::OK();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  OIB_RETURN_IF_ERROR(ApplyRecordChange(
      &sp, HeapOp::kInsert, slot, std::string_view(rec.redo).substr(2)));
  guard->set_page_lsn(rec.lsn);
  return Status::OK();
}

Status SideFileRm::Undo(Transaction* txn, const LogRecord& rec) {
  (void)txn;
  (void)rec;
  return Status::Corruption("side-file records are redo-only");
}

}  // namespace oib
