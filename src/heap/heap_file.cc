#include "heap/heap_file.h"

#include "common/coding.h"

namespace oib {

void EncodeHeapPayload(std::string* out, SlotId slot, uint32_t visible_count,
                       std::string_view bytes) {
  PutFixed16(out, slot);
  PutFixed32(out, visible_count);
  out->append(bytes.data(), bytes.size());
}

Status DecodeHeapPayload(std::string_view in, HeapRecPayload* out) {
  BufferReader r(in);
  if (!r.GetFixed16(&out->slot) || !r.GetFixed32(&out->visible_count)) {
    return Status::Corruption("heap payload");
  }
  out->bytes = in.substr(r.position());
  return Status::OK();
}

Status ApplyRecordChange(SlottedPage* sp, HeapOp op, SlotId slot,
                         std::string_view bytes) {
  switch (op) {
    case HeapOp::kInsert:
      return sp->InsertAt(slot, bytes);
    case HeapOp::kDelete:
      return sp->Delete(slot);
    case HeapOp::kUpdate:
      return sp->Update(slot, bytes);
    default:
      return Status::Corruption("not a heap record change");
  }
}

namespace {

// A redo-only heap RM record of `op` on `page`; `owner` (a table or a
// side-file's index) only labels it, since redo is physical.
LogRecord HeapRecord(HeapOp op, PageId page, uint32_t owner) {
  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kHeap;
  rec.opcode = static_cast<uint8_t>(op);
  rec.page_id = page;
  rec.aux_id = owner;
  return rec;
}

}  // namespace

StatusOr<PageId> AppendChainPage(BufferPool* pool, TransactionManager* txns,
                                 uint32_t owner, PageType type,
                                 PageId tail) {
  const size_t page_size = pool->disk()->page_size();
  PageId id;
  {
    auto guard = pool->NewPageNoReuse(&id);
    if (!guard.ok()) return guard.status();
    SlottedPage(guard->data(), page_size).Init(type);
    LogRecord rec = HeapRecord(HeapOp::kFormat, id, owner);
    rec.redo.push_back(static_cast<char>(type));
    OIB_RETURN_IF_ERROR(txns->AppendLog(nullptr, &rec));
    guard->set_page_lsn(rec.lsn);
  }
  if (tail == kInvalidPageId) return id;
  auto guard = pool->FetchWrite(tail);
  if (!guard.ok()) return guard.status();
  SlottedPage(guard->data(), page_size).set_next_page(id);
  LogRecord rec = HeapRecord(HeapOp::kLink, tail, owner);
  PutFixed32(&rec.redo, id);
  OIB_RETURN_IF_ERROR(txns->AppendLog(nullptr, &rec));
  guard->set_page_lsn(rec.lsn);
  return id;
}

// ----------------------------- HeapFile -----------------------------

Status HeapFile::Create() {
  auto id = AppendChainPage(pool_, txns_, table_id_, PageType::kHeap,
                            kInvalidPageId);
  if (!id.ok()) return id.status();
  first_page_ = *id;
  tail_page_.store(*id);
  {
    sync::MutexLock g(&hints_mu_);
    chain_pages_.assign(1, *id);
  }
  return Status::OK();
}

void HeapFile::ChainSnapshot::EncodeTo(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(runs.size()));
  for (const auto& [first, len] : runs) {
    PutFixed32(out, first);
    PutFixed32(out, len);
  }
  PutFixed32(out, static_cast<uint32_t>(hints.size()));
  for (PageId p : hints) PutFixed32(out, p);
}

Status HeapFile::ChainSnapshot::DecodeFrom(BufferReader* in) {
  uint32_t n;
  if (!in->GetFixed32(&n)) return Status::Corruption("chain snapshot");
  runs.resize(n);
  for (auto& [first, len] : runs) {
    if (!in->GetFixed32(&first) || !in->GetFixed32(&len) || len == 0) {
      return Status::Corruption("chain snapshot run");
    }
  }
  if (!in->GetFixed32(&n)) return Status::Corruption("chain snapshot");
  hints.resize(n);
  for (PageId& p : hints) {
    if (!in->GetFixed32(&p)) return Status::Corruption("chain snapshot hint");
  }
  return Status::OK();
}

HeapFile::ChainSnapshot HeapFile::TakeChainSnapshot() const {
  ChainSnapshot snap;
  sync::MutexLock g(&hints_mu_);
  for (PageId p : chain_pages_) {
    if (!snap.runs.empty() &&
        snap.runs.back().first + snap.runs.back().second == p) {
      ++snap.runs.back().second;
    } else {
      snap.runs.emplace_back(p, 1);
    }
  }
  snap.hints = free_hints_;
  return snap;
}

Status HeapFile::Open(PageId first, const ChainSnapshot* snapshot) {
  first_page_ = first;
  std::vector<PageId> chain;
  std::vector<PageId> hints;
  if (snapshot != nullptr) {
    for (const auto& [start, len] : snapshot->runs) {
      for (uint32_t i = 0; i < len; ++i) chain.push_back(start + i);
    }
    if (chain.empty() || chain.front() != first) {
      return Status::Corruption("chain snapshot does not start at page " +
                                std::to_string(first));
    }
    hints = snapshot->hints;
  }
  // Pages below `known` carry their hints in the snapshot; the walk reads
  // the last known page (for its next link) and every page after it.
  const size_t known = chain.size();
  if (chain.empty()) chain.push_back(first);
  for (size_t i = chain.size() - 1;; ++i) {
    PageId cur = chain[i];
    auto guard = pool_->FetchRead(cur);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(const_cast<char*>(guard->data()),
                   pool_->disk()->page_size());
    if (sp.type() != PageType::kHeap) {
      return Status::Corruption("heap chain reaches a non-heap page " +
                                std::to_string(cur));
    }
    if (sp.next_page() == cur) {
      return Status::Corruption("heap chain self-loop at page " +
                                std::to_string(cur));
    }
    if (i >= known && sp.FreeSpaceForInsert() > 64) hints.push_back(cur);
    if (sp.next_page() == kInvalidPageId) break;
    chain.push_back(sp.next_page());
  }
  tail_page_.store(chain.back());
  sync::MutexLock g(&hints_mu_);
  free_hints_ = std::move(hints);
  chain_pages_ = std::move(chain);
  return Status::OK();
}

StatusOr<PageId> HeapFile::ExtendChain() {
  auto id = AppendChainPage(pool_, txns_, table_id_, PageType::kHeap,
                            tail_page_.load());
  if (!id.ok()) return id.status();
  tail_page_.store(*id);
  {
    sync::MutexLock g(&hints_mu_);
    chain_pages_.push_back(*id);
  }
  return *id;
}

StatusOr<WritePageGuard> HeapFile::PageForInsert(size_t need) {
  // Try free-space hints first, then the tail, then extend.
  for (;;) {
    PageId candidate = kInvalidPageId;
    {
      sync::MutexLock g(&hints_mu_);
      while (!free_hints_.empty() && candidate == kInvalidPageId) {
        candidate = free_hints_.back();
        free_hints_.pop_back();
      }
    }
    if (candidate == kInvalidPageId) candidate = tail_page_.load();
    auto guard = pool_->FetchWrite(candidate);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());
    if (sp.FreeSpaceForInsert() >= need) {
      if (sp.FreeSpaceForInsert() >= 2 * need + 64) {
        // Page still roomy: keep it as a hint for the next insert.
        sync::MutexLock g(&hints_mu_);
        free_hints_.push_back(candidate);
      }
      return guard;
    }
    guard->Release();
    if (candidate == tail_page_.load()) {
      // Serialize extension: re-check tail after taking the slow path.
      sync::MutexLock ext(&extend_mu_);
      if (candidate == tail_page_.load()) {
        auto extended = ExtendChain();
        if (!extended.ok()) return extended.status();
      }
    }
  }
}

Status HeapFile::LogChange(Transaction* txn, WritePageGuard* guard,
                           HeapOp op, SlotId slot, uint32_t visible_count,
                           std::string_view bytes, std::string_view undo) {
  LogRecord lr = HeapRecord(op, guard->page_id(), table_id_);
  lr.type = LogRecordType::kUpdate;
  EncodeHeapPayload(&lr.redo, slot, visible_count, bytes);
  lr.undo.assign(undo.data(), undo.size());
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &lr));
  guard->set_page_lsn(lr.lsn);
  return Status::OK();
}

StatusOr<Rid> HeapFile::Insert(Transaction* txn, std::string_view rec,
                               const VisibleCountFn& visible_count_fn,
                               const TryClaimRidFn& try_claim) {
  auto guard = PageForInsert(rec.size());
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  // Reuse the first dead slot — with try_claim, only one whose RID lock
  // is claimable (its deleter committed) — else append a fresh slot.
  SlotId target = sp.slot_count();
  for (SlotId s = 0; s < sp.slot_count(); ++s) {
    if (!sp.IsLive(s) && (!try_claim || try_claim(Rid(guard->page_id(), s)))) {
      target = s;
      break;
    }
  }
  Status ins = ApplyRecordChange(&sp, HeapOp::kInsert, target, rec);
  if (ins.IsBusy()) {
    // The page's free space was tied up in unclaimable dead slots; put
    // the record on a fresh page instead.
    guard->Release();
    sync::MutexLock ext(&extend_mu_);
    auto extended = ExtendChain();
    if (!extended.ok()) return extended.status();
    auto g2 = pool_->FetchWrite(*extended);
    if (!g2.ok()) return g2.status();
    *guard = std::move(*g2);
    SlottedPage sp2(guard->data(), pool_->disk()->page_size());
    target = sp2.slot_count();
    OIB_RETURN_IF_ERROR(ApplyRecordChange(&sp2, HeapOp::kInsert, target, rec));
  } else if (!ins.ok()) {
    return ins;
  }
  Rid rid(guard->page_id(), target);
  OIB_RETURN_IF_ERROR(
      LogChange(txn, &*guard, HeapOp::kInsert, target,
                visible_count_fn ? visible_count_fn(rid) : 0, rec));
  return rid;
}

Status HeapFile::InsertAt(Transaction* txn, Rid rid, std::string_view rec,
                          const VisibleCountFn& visible_count_fn) {
  auto guard = pool_->FetchWrite(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  OIB_RETURN_IF_ERROR(ApplyRecordChange(&sp, HeapOp::kInsert, rid.slot, rec));
  return LogChange(txn, &*guard, HeapOp::kInsert, rid.slot,
                   visible_count_fn ? visible_count_fn(rid) : 0, rec);
}

Status HeapFile::ChangeInPlace(Transaction* txn, Rid rid, HeapOp op,
                               std::string_view rec,
                               const VisibleCountFn& visible_count_fn,
                               std::string* old_rec) {
  auto guard = pool_->FetchWrite(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  auto old = sp.Get(rid.slot);
  if (!old.ok()) return old.status();
  std::string old_copy(old->data(), old->size());
  uint32_t visible_count = visible_count_fn ? visible_count_fn(rid) : 0;
  OIB_RETURN_IF_ERROR(ApplyRecordChange(&sp, op, rid.slot, rec));
  OIB_RETURN_IF_ERROR(
      LogChange(txn, &*guard, op, rid.slot, visible_count, rec, old_copy));
  if (old_rec != nullptr) *old_rec = std::move(old_copy);
  return Status::OK();
}

Status HeapFile::Delete(Transaction* txn, Rid rid,
                        const VisibleCountFn& visible_count_fn,
                        std::string* old_rec) {
  OIB_RETURN_IF_ERROR(
      ChangeInPlace(txn, rid, HeapOp::kDelete, {}, visible_count_fn, old_rec));
  sync::MutexLock g(&hints_mu_);
  if (free_hints_.size() < 64) free_hints_.push_back(rid.page);
  return Status::OK();
}

Status HeapFile::Update(Transaction* txn, Rid rid, std::string_view rec,
                        const VisibleCountFn& visible_count_fn,
                        std::string* old_rec) {
  return ChangeInPlace(txn, rid, HeapOp::kUpdate, rec, visible_count_fn,
                       old_rec);
}

StatusOr<std::string> HeapFile::Get(Rid rid) const {
  auto guard = pool_->FetchRead(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  auto rec = sp.Get(rid.slot);
  if (!rec.ok()) return rec.status();
  return std::string(rec->data(), rec->size());
}

bool HeapFile::Exists(Rid rid) const {
  auto guard = pool_->FetchRead(rid.page);
  if (!guard.ok()) return false;
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  return sp.IsLive(rid.slot);
}

StatusOr<PageId> HeapFile::ExtractPage(
    PageId page, std::vector<std::pair<Rid, std::string>>* out,
    const std::function<void()>& under_latch, Lsn* page_lsn) const {
  auto guard = pool_->FetchRead(page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  for (SlotId s = 0; s < sp.slot_count(); ++s) {
    auto rec = sp.Get(s);
    if (rec.ok()) {
      out->emplace_back(Rid(page, s), std::string(rec->data(), rec->size()));
    }
  }
  if (under_latch) under_latch();
  if (page_lsn != nullptr) *page_lsn = guard->page_lsn();
  return sp.next_page();
}

StatusOr<std::vector<PageId>> HeapFile::ChainPages(PageId stop_at) const {
  sync::MutexLock g(&hints_mu_);
  if (stop_at == kInvalidPageId) return chain_pages_;
  std::vector<PageId> pages;
  pages.reserve(chain_pages_.size());
  for (PageId p : chain_pages_) {
    pages.push_back(p);
    if (p == stop_at) break;
  }
  return pages;
}

Status HeapFile::ForEach(
    const std::function<void(const Rid&, std::string_view)>& fn) const {
  PageId cur = first_page_;
  while (cur != kInvalidPageId) {
    std::vector<std::pair<Rid, std::string>> recs;
    auto next = ExtractPage(cur, &recs);
    if (!next.ok()) return next.status();
    for (const auto& [rid, bytes] : recs) fn(rid, bytes);
    cur = *next;
  }
  return Status::OK();
}

size_t HeapFile::page_count() const {
  sync::MutexLock g(&hints_mu_);
  return chain_pages_.size();
}

// ------------------------------ HeapRm ------------------------------

Status HeapRm::Redo(const LogRecord& rec) {
  HeapOp op = static_cast<HeapOp>(rec.opcode);
  auto guard = pool_->FetchWrite(rec.page_id);
  if (!guard.ok()) return guard.status();
  if (guard->page_lsn() >= rec.lsn) return Status::OK();  // already applied
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  switch (op) {
    case HeapOp::kFormat:
      if (rec.redo.empty()) return Status::Corruption("format redo");
      sp.Init(static_cast<PageType>(static_cast<uint8_t>(rec.redo[0])));
      break;
    case HeapOp::kLink: {
      BufferReader r(rec.redo);
      uint32_t next;
      if (!r.GetFixed32(&next)) return Status::Corruption("link redo");
      sp.set_next_page(next);
      break;
    }
    default: {
      HeapRecPayload p;
      OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
      OIB_RETURN_IF_ERROR(ApplyRecordChange(&sp, op, p.slot, p.bytes));
      break;
    }
  }
  guard->set_page_lsn(rec.lsn);
  return Status::OK();
}

Status HeapRm::Undo(Transaction* txn, const LogRecord& rec) {
  HeapOp op = static_cast<HeapOp>(rec.opcode);
  HeapRecPayload p;
  OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
  Rid rid(rec.page_id, p.slot);
  // The CLR's change: the inverse op and the image it leaves in the slot
  // (the undo payload; none for undo-of-insert).
  HeapOp inverse;
  std::string_view image;
  switch (op) {
    case HeapOp::kInsert:
      inverse = HeapOp::kDelete;
      break;
    case HeapOp::kDelete:
      inverse = HeapOp::kInsert;
      image = rec.undo;
      break;
    case HeapOp::kUpdate:
      inverse = HeapOp::kUpdate;
      image = rec.undo;
      break;
    default:
      return Status::Corruption("undo of non-undoable heap op");
  }

  // Figure 2: X-latch the target page; decide index-compensation actions
  // *under the latch* (the Current-RID comparison must be ordered with IB's
  // scan by the page latch) and log them (redo-only) BEFORE the CLR — a
  // crash in between re-runs the whole undo, and the compensations are
  // idempotent; the reverse order would lose them.  Then modify the
  // record, write the CLR, bump the page LSN, and unlatch.
  auto guard = pool_->FetchWrite(rec.page_id);
  if (!guard.ok()) return guard.status();
  if (undo_hook_) {
    // `image` is restored and the forward image p.bytes (none for a
    // delete) removed.
    OIB_RETURN_IF_ERROR(undo_hook_(txn, rec.aux_id, op, rid, image, p.bytes,
                                   p.visible_count));
  }
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  OIB_RETURN_IF_ERROR(ApplyRecordChange(&sp, inverse, p.slot, image));
  LogRecord clr = HeapRecord(inverse, rec.page_id, rec.aux_id);
  EncodeHeapPayload(&clr.redo, p.slot, p.visible_count, image);
  OIB_RETURN_IF_ERROR(txns_->AppendClr(txn, rec, &clr));
  guard->set_page_lsn(clr.lsn);
  return Status::OK();
}

}  // namespace oib
