#include "btree/btree.h"

#include <cassert>

#include "common/coding.h"
#include "common/failpoint.h"

namespace oib {

namespace {

// Maximum key-value size accepted by the tree.  Keeping this well under
// page capacity lets the pessimistic descent use a constant "safe node"
// space threshold.  The threshold is measured in *logical* free bytes
// (every entry priced uncompressed) and must cover the largest logical
// entry (internal header 10 + slen 2 + key 128 + offset slot 2 = 142)
// plus the prefix_len reserve (<= kMaxKeySize) that HasSpaceFor demands
// to absorb the worst physical expansion of a prefix shrink.
constexpr size_t kMaxKeySize = 128;
constexpr size_t kSafeNodeFreeBytes = 288;
constexpr size_t kAnchorRootOff = 8;

// Split-record payload codec (kSplit).
struct SplitPayload {
  PageId new_page = kInvalidPageId;
  PageId parent = kInvalidPageId;
  PageId new_leftmost = kInvalidPageId;
  PageId new_next = kInvalidPageId;
  uint8_t is_leaf = 1;
  uint8_t level = 0;
  std::string sep_key;
  Rid sep_rid;
  std::string moved;  // SerializeEntries blob
};

void EncodeSplitPayload(std::string* out, const SplitPayload& p) {
  PutFixed32(out, p.new_page);
  PutFixed32(out, p.parent);
  PutFixed32(out, p.new_leftmost);
  PutFixed32(out, p.new_next);
  out->push_back(static_cast<char>(p.is_leaf));
  out->push_back(static_cast<char>(p.level));
  PutFixed32(out, p.sep_rid.page);
  PutFixed16(out, p.sep_rid.slot);
  PutLengthPrefixed(out, p.sep_key);
  out->append(p.moved);
}

Status DecodeSplitPayload(std::string_view in, SplitPayload* p) {
  BufferReader r(in);
  uint16_t slot;
  if (!r.GetFixed32(&p->new_page) || !r.GetFixed32(&p->parent) ||
      !r.GetFixed32(&p->new_leftmost) || !r.GetFixed32(&p->new_next) ||
      !r.GetByte(&p->is_leaf) || !r.GetByte(&p->level) ||
      !r.GetFixed32(&p->sep_rid.page) || !r.GetFixed16(&slot) ||
      !r.GetLengthPrefixed(&p->sep_key)) {
    return Status::Corruption("split payload");
  }
  p->sep_rid.slot = slot;
  p->moved = std::string(in.substr(r.position()));
  return Status::OK();
}

// New-root payload codec (kNewRoot): [anchor][old_root][level].
void EncodeNewRootPayload(std::string* out, PageId anchor, PageId old_root,
                          uint8_t level) {
  PutFixed32(out, anchor);
  PutFixed32(out, old_root);
  out->push_back(static_cast<char>(level));
}

Status DecodeNewRootPayload(std::string_view in, PageId* anchor,
                            PageId* old_root, uint8_t* level) {
  BufferReader r(in);
  if (!r.GetFixed32(anchor) || !r.GetFixed32(old_root) || !r.GetByte(level)) {
    return Status::Corruption("new-root payload");
  }
  return Status::OK();
}

// ---- Apply functions: the only code that changes B+-tree page bytes.
// Forward processing, CLRs and restart redo all call them with the
// decoded payload.  A multi-page record takes one pointer per page; redo
// passes nullptr for a page whose LSN shows it already has the change.

void ApplyAnchorRoot(char* anchor, PageId root) {
  EncodeFixed32(anchor + kAnchorRootOff, root);
}

// kNewRoot: an empty internal root above `old_root`, named by the anchor.
void ApplyNewRoot(char* root, char* anchor, size_t page_size, PageId root_id,
                  PageId old_root, uint8_t level) {
  if (root != nullptr) {
    BTreePage np(root, page_size);
    np.Init(/*leaf=*/false, level);
    np.set_leftmost_child(old_root);
  }
  if (anchor != nullptr) ApplyAnchorRoot(anchor, root_id);
}

// kSplit: the moved entries fill the new page, the split page keeps the
// entries below the separator, and the parent gains the separator.
Status ApplySplit(const SplitPayload& p, size_t page_size, char* new_page,
                  char* split_page, char* parent) {
  if (new_page != nullptr) {
    BTreePage np(new_page, page_size);
    np.Init(p.is_leaf != 0, p.level);
    np.set_leftmost_child(p.new_leftmost);
    OIB_RETURN_IF_ERROR(np.AppendSerialized(p.moved));
    np.set_next(p.new_next);
  }
  if (split_page != nullptr) {
    BTreePage node(split_page, page_size);
    node.TruncateFrom(node.LowerBound(p.sep_key, p.sep_rid));
    if (p.is_leaf != 0) node.set_next(p.new_page);
  }
  if (parent != nullptr) {
    BTreePage pp(parent, page_size);
    OIB_RETURN_IF_ERROR(
        pp.InsertInternalAt(pp.LowerBound(p.sep_key, p.sep_rid), p.sep_key,
                            p.sep_rid, p.new_page));
  }
  return Status::OK();
}

// The leaf entry changes.  kBatchInsert is kInsertKey once per entry.
Status ApplyKeyOp(BTreePage* page, BtreeOp op, const KeyPayload& kp) {
  if (op == BtreeOp::kInsertKey) {
    return page->InsertLeafAt(page->LowerBound(kp.key, kp.rid), kp.key,
                              kp.rid, kp.flags);
  }
  int pos = page->FindExact(kp.key, kp.rid);
  if (pos < 0) return Status::Corruption("leaf change of an absent key");
  switch (op) {
    case BtreeOp::kPseudoDelete:
      page->SetFlagsAt(pos, kEntryPseudoDeleted);
      return Status::OK();
    case BtreeOp::kReactivate:
      page->SetFlagsAt(pos, 0);
      return Status::OK();
    case BtreeOp::kPhysicalDelete:
    case BtreeOp::kGcRemove:
      page->RemoveAt(pos);
      return Status::OK();
    default:
      return Status::Corruption("not a leaf key op");
  }
}

// A page X-latched for the redo of one record; data() is nullptr when the
// page's LSN shows it already holds the change.
struct RedoPage {
  WritePageGuard guard;
  bool apply = false;

  Status Fetch(BufferPool* pool, PageId id, Lsn lsn) {
    auto g = pool->FetchWrite(id);
    if (!g.ok()) return g.status();
    guard = std::move(*g);
    apply = guard.page_lsn() < lsn;
    return Status::OK();
  }
  char* data() { return apply ? guard.data() : nullptr; }
  void Stamp(Lsn lsn) {
    if (apply) guard.set_page_lsn(lsn);
  }
};

}  // namespace

void EncodeKeyPayload(std::string* out, uint8_t flags, std::string_view key,
                      const Rid& rid) {
  out->push_back(static_cast<char>(flags));
  PutFixed32(out, rid.page);
  PutFixed16(out, rid.slot);
  PutFixed16(out, static_cast<uint16_t>(key.size()));
  out->append(key.data(), key.size());
}

Status DecodeKeyPayload(std::string_view in, KeyPayload* out) {
  BufferReader r(in);
  uint16_t slot, klen;
  if (!r.GetByte(&out->flags) || !r.GetFixed32(&out->rid.page) ||
      !r.GetFixed16(&slot) || !r.GetFixed16(&klen) || r.remaining() < klen) {
    return Status::Corruption("key payload");
  }
  out->rid.slot = slot;
  out->key = in.substr(r.position(), klen);
  return Status::OK();
}

// ----------------------------- lifecycle -----------------------------

LogRecord BTree::NewRecord(BtreeOp op, PageId page,
                           LogRecordType type) const {
  LogRecord rec;
  rec.type = type;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(op);
  rec.page_id = page;
  rec.aux_id = index_id_;
  return rec;
}

Status BTree::Create() {
  auto anchor_guard = pool_->NewPage(&anchor_);
  if (!anchor_guard.ok()) return anchor_guard.status();
  PageId root_id;
  auto root_guard = pool_->NewPage(&root_id);
  if (!root_guard.ok()) return root_guard.status();
  BTreePage rp(root_guard->data(), page_size());
  rp.Init(/*leaf=*/true, /*level=*/0);
  LogRecord rec = NewRecord(BtreeOp::kFormat, root_id);
  rec.redo.push_back(1);  // leaf
  rec.redo.push_back(0);  // level
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  root_guard->set_page_lsn(rec.lsn);
  return SetRoot(&*anchor_guard, root_id);
}

Status BTree::SetRoot(WritePageGuard* anchor, PageId root) {
  LogRecord rec = NewRecord(BtreeOp::kInitAnchor, anchor_);
  PutFixed32(&rec.redo, root);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  ApplyAnchorRoot(anchor->data(), root);
  anchor->set_page_lsn(rec.lsn);
  root_.store(root);
  return Status::OK();
}

Status BTree::Open(PageId anchor) {
  anchor_ = anchor;
  auto guard = pool_->FetchRead(anchor);
  if (!guard.ok()) return guard.status();
  root_.store(DecodeFixed32(guard->data() + kAnchorRootOff));
  return Status::OK();
}

// ----------------------------- descents -----------------------------

Status BTree::LatchRootRead(ReadPageGuard* out) const {
  for (;;) {
    PageId r = root_.load();
    auto guard = pool_->FetchRead(r);
    if (!guard.ok()) return guard.status();
    if (root_.load() == r) {
      *out = std::move(*guard);
      return Status::OK();
    }
    // Root changed while we were latching; retry from the new root.
  }
}

Status BTree::DescendToLeafRead(std::string_view key, const Rid& rid,
                                ReadPageGuard* out) const {
  ReadPageGuard cur;
  OIB_RETURN_IF_ERROR(LatchRootRead(&cur));
  for (;;) {
    BTreePage page(const_cast<char*>(cur.data()), page_size());
    if (page.is_leaf()) {
      *out = std::move(cur);
      return Status::OK();
    }
    PageId child = page.Route(key, rid);
    auto next = pool_->FetchRead(child);  // latch child before parent drop
    if (!next.ok()) return next.status();
    cur = std::move(*next);
  }
}

Status BTree::DescendToLeafWrite(std::string_view key, const Rid& rid,
                                 WritePageGuard* out) {
  for (;;) {
    PageId r = root_.load();
    auto rg = pool_->FetchRead(r);
    if (!rg.ok()) return rg.status();
    if (root_.load() != r) continue;
    BTreePage rp(const_cast<char*>(rg->data()), page_size());
    if (rp.is_leaf()) {
      rg->Release();
      auto wg = pool_->FetchWrite(r);
      if (!wg.ok()) return wg.status();
      if (root_.load() != r) continue;
      BTreePage wp(wg->data(), page_size());
      if (!wp.is_leaf()) continue;  // tree grew under us
      *out = std::move(*wg);
      return Status::OK();
    }
    ReadPageGuard cur = std::move(*rg);
    for (;;) {
      BTreePage page(const_cast<char*>(cur.data()), page_size());
      PageId child = page.Route(key, rid);
      if (page.level() == 1) {
        auto wg = pool_->FetchWrite(child);
        if (!wg.ok()) return wg.status();
        cur.Release();
        *out = std::move(*wg);
        return Status::OK();
      }
      auto next = pool_->FetchRead(child);
      if (!next.ok()) return next.status();
      cur = std::move(*next);
    }
  }
}

Status BTree::DescendPessimistic(std::string_view key, const Rid& rid,
                                 std::vector<WritePageGuard>* path,
                                 bool ib_mode, KeyBound* high) {
  // A node is "safe" if it cannot possibly need a split on this insert;
  // ancestors above a safe node are released.  IB inserts split leaves
  // earlier (at the fill factor), so in ib_mode a leaf must also be within
  // it to count as safe — otherwise the retained path could be just
  // [leaf] while a split is still required, and the split would wrongly
  // grow a new root above a non-root page.
  auto is_safe = [&](const BTreePage& page) {
    if (page.LogicalFreeBytes() < kSafeNodeFreeBytes) return false;
    return !ib_mode || !page.is_leaf() || WithinFillFactor(page, kMaxKeySize);
  };
  path->clear();
  if (high != nullptr) high->valid = false;
  for (;;) {
    PageId r = root_.load();
    auto rg = pool_->FetchWrite(r);
    if (!rg.ok()) return rg.status();
    if (root_.load() != r) continue;
    path->push_back(std::move(*rg));
    break;
  }
  for (;;) {
    BTreePage page(path->back().data(), page_size());
    if (page.is_leaf()) return Status::OK();
    PageId child = page.Route(key, rid);
    if (high != nullptr) {
      // Tightest separator above the descent edge bounds the leaf's key
      // space; on a rightmost edge the bound from higher levels stands.
      int i = page.LowerBound(key, rid);
      int ci = (i < page.count() && page.CompareEntryAt(i, key, rid) == 0)
                   ? i
                   : i - 1;
      if (ci + 1 < page.count()) {
        high->key = page.KeyAt(ci + 1);
        high->rid = page.RidAt(ci + 1);
        high->valid = true;
      }
    }
    auto cg = pool_->FetchWrite(child);
    if (!cg.ok()) return cg.status();
    path->push_back(std::move(*cg));
    BTreePage cp(path->back().data(), page_size());
    if (is_safe(cp)) {
      path->erase(path->begin(), path->end() - 1);
    }
  }
}

// ------------------------- split machinery --------------------------

Status BTree::GrowRoot(std::vector<WritePageGuard>* path) {
  if (path->front().page_id() != root_.load()) {
    // The retained path must start at the real root here; anything else
    // means a descent-safety bug and would orphan the tree.
    return Status::Corruption("GrowRoot on a non-root page");
  }
  BTreePage old_page(path->front().data(), page_size());
  uint8_t new_level = static_cast<uint8_t>(old_page.level() + 1);
  PageId old_root_id = path->front().page_id();

  PageId new_root_id;
  auto new_root = pool_->NewPage(&new_root_id);
  if (!new_root.ok()) return new_root.status();
  // Both pages the record changes are latched before it is logged, as for
  // every logged change: a checkpoint's pool flush must not write the
  // anchor between the record and its change.
  auto anchor_guard = pool_->FetchWrite(anchor_);
  if (!anchor_guard.ok()) return anchor_guard.status();

  LogRecord rec = NewRecord(BtreeOp::kNewRoot, new_root_id);
  EncodeNewRootPayload(&rec.redo, anchor_, old_root_id, new_level);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  ApplyNewRoot(new_root->data(), anchor_guard->data(), page_size(),
               new_root_id, old_root_id, new_level);
  new_root->set_page_lsn(rec.lsn);
  anchor_guard->set_page_lsn(rec.lsn);
  anchor_guard->Release();

  // Publish while the old root's X latch is still held (path->front()),
  // so any stale descent re-validates and retries.
  root_.store(new_root_id);

  path->insert(path->begin(), std::move(*new_root));
  return Status::OK();
}

Status BTree::EnsureParentHasRoom(std::vector<WritePageGuard>* path,
                                  size_t* idx, std::string_view sep_key,
                                  const Rid& sep_rid) {
  size_t parent_idx = *idx - 1;
  {
    BTreePage parent((*path)[parent_idx].data(), page_size());
    if (parent.HasSpaceFor(KeySlice(sep_key))) return Status::OK();
  }
  int mid;
  {
    BTreePage parent((*path)[parent_idx].data(), page_size());
    mid = parent.count() / 2;
    if (mid == 0) mid = 1;
  }
  WritePageGuard new_half;
  std::string psep_key;
  Rid psep_rid;
  OIB_RETURN_IF_ERROR(SplitNode(path, &parent_idx, mid, sep_key, sep_rid,
                                &new_half, &psep_key, &psep_rid));
  if (CompareIndexKey(sep_key, sep_rid, psep_key, psep_rid) >= 0) {
    (*path)[parent_idx] = std::move(new_half);
  }
  *idx = parent_idx + 1;
  return Status::OK();
}

Status BTree::SplitNode(std::vector<WritePageGuard>* path, size_t* idx,
                        int split_at, std::string_view key, const Rid& rid,
                        WritePageGuard* new_guard, std::string* out_sep_key,
                        Rid* out_sep_rid) {
  if (*idx == 0) {
    // The topmost retained node is either safe (then it would not need a
    // split) or the root; grow the tree first.
    OIB_RETURN_IF_ERROR(GrowRoot(path));
    *idx = 1;
  }

  SplitPayload p;
  {
    BTreePage node((*path)[*idx].data(), page_size());
    bool leaf = node.is_leaf();
    int n = node.count();
    // A leaf splits anywhere in [0, n]: at 0 the IB split moves every key
    // (section 2.3.1), at n nothing moves and (key, rid) bounds the new
    // empty right page.  An internal split pushes entry[split_at] up, so
    // it needs an entry on each side.
    assert(leaf ? split_at >= 0 && split_at <= n
                : split_at > 0 && split_at < n);
    p.is_leaf = leaf ? 1 : 0;
    p.level = node.level();
    if (split_at < n) {
      p.sep_key = node.KeyAt(split_at);
      p.sep_rid = node.RidAt(split_at);
    } else {
      p.sep_key.assign(key.data(), key.size());
      p.sep_rid = rid;
    }
    if (leaf) {
      p.new_next = node.next();
      p.moved = node.SerializeEntries(split_at, n);
    } else {
      // The separator is pushed up; its child becomes the new page's
      // leftmost child.
      p.new_leftmost = node.ChildAt(split_at);
      p.moved = node.SerializeEntries(split_at + 1, n);
    }
  }

  OIB_RETURN_IF_ERROR(EnsureParentHasRoom(path, idx, p.sep_key, p.sep_rid));
  WritePageGuard& split_page = (*path)[*idx];
  WritePageGuard& parent = (*path)[*idx - 1];
  p.parent = parent.page_id();

  auto ng = pool_->NewPage(&p.new_page);
  if (!ng.ok()) return ng.status();

  LogRecord rec = NewRecord(BtreeOp::kSplit, split_page.page_id());
  EncodeSplitPayload(&rec.redo, p);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  OIB_RETURN_IF_ERROR(ApplySplit(p, page_size(), ng->data(),
                                 split_page.data(), parent.data()));
  ng->set_page_lsn(rec.lsn);
  split_page.set_page_lsn(rec.lsn);
  parent.set_page_lsn(rec.lsn);

  splits_.fetch_add(1);
  *new_guard = std::move(*ng);
  *out_sep_key = std::move(p.sep_key);
  *out_sep_rid = p.sep_rid;
  return Status::OK();
}

Status BTree::MakeRoomInLeaf(std::vector<WritePageGuard>* path,
                             std::string_view key, const Rid& rid,
                             bool ib_mode) {
  for (;;) {
    size_t leaf_idx = path->size() - 1;
    bool has_room;
    int n, pos;
    {
      BTreePage leaf((*path)[leaf_idx].data(), page_size());
      has_room = leaf.HasSpaceFor(KeySlice(key)) &&
                 (!ib_mode || WithinFillFactor(leaf, key.size()));
      n = leaf.count();
      pos = leaf.LowerBound(key, rid);
      // The exact entry needs no room: a transaction inserted it while IB
      // re-descended, and IB's caller rejects the duplicate.  An IB split
      // at it would move it to the right page, again and again.
      if (pos < n && leaf.CompareEntryAt(pos, key, rid) == 0) has_room = true;
    }
    if (has_room) return Status::OK();

    int split_at;
    if (ib_mode) {
      // Section 2.3.1: move only the keys higher than IB's (those were
      // inserted by transactions); if there are none, open a fresh leaf.
      split_at = pos;
    } else if (pos == n) {
      // Append pattern: leave the full page behind, open an empty right
      // neighbour (mimics bottom-up growth).
      split_at = n;
    } else {
      split_at = n / 2;
      if (split_at == 0) split_at = 1;
      if (split_at >= n) split_at = n - 1;
    }

    WritePageGuard new_half;
    std::string sep_key;
    Rid sep_rid;
    OIB_RETURN_IF_ERROR(SplitNode(path, &leaf_idx, split_at, key, rid,
                                  &new_half, &sep_key, &sep_rid));
    if (CompareIndexKey(key, rid, sep_key, sep_rid) >= 0) {
      (*path)[leaf_idx] = std::move(new_half);
    }
    // Loop to re-check space on the (possibly new) target leaf.
  }
}

size_t BTree::LeafSoftCapacity() const {
  return static_cast<size_t>(static_cast<double>(page_size()) *
                             options_->leaf_fill_factor);
}

bool BTree::WithinFillFactor(const BTreePage& leaf, size_t key_len) const {
  size_t entry = kLeafEntryHeader + 2 + key_len + 2;
  return leaf.count() == 0 ||
         (page_size() - leaf.LogicalFreeBytes()) + entry <=
             LeafSoftCapacity();
}

// ------------------------ logged page mutations ----------------------

Status BTree::LogKeyOp(Transaction* txn, WritePageGuard* leaf, BtreeOp op,
                       const KeyPayload& kp, LogRecordType type,
                       Lsn undo_next) {
  LogRecord rec = NewRecord(op, leaf->page_id(), type);
  rec.undo_next_lsn = undo_next;
  EncodeKeyPayload(&rec.redo, kp.flags, kp.key, kp.rid);
  // Undo of a physical delete re-inserts the key with its old flags.
  if (op == BtreeOp::kPhysicalDelete && type != LogRecordType::kClr) {
    rec.undo = rec.redo;
  }
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
  BTreePage page(leaf->data(), page_size());
  OIB_RETURN_IF_ERROR(ApplyKeyOp(&page, op, kp));
  leaf->set_page_lsn(rec.lsn);
  switch (op) {
    case BtreeOp::kInsertKey:
      NotifyInsert(kp.key, kp.rid, kp.flags);
      break;
    case BtreeOp::kPseudoDelete:
      NotifySetFlags(kp.key, kp.rid, kEntryPseudoDeleted);
      break;
    case BtreeOp::kReactivate:
      NotifySetFlags(kp.key, kp.rid, 0);
      break;
    default:
      NotifyRemove(kp.key, kp.rid);
      break;
  }
  return Status::OK();
}

// --------------------------- public key ops --------------------------

StatusOr<BTree::InsertResult> BTree::Insert(Transaction* txn,
                                            std::string_view key,
                                            const Rid& rid, uint8_t flags,
                                            LogRecordType log_type) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key too large");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool pessimistic = attempt == 1;
    WritePageGuard leaf;
    std::vector<WritePageGuard> path;
    if (pessimistic) {
      OIB_RETURN_IF_ERROR(DescendPessimistic(key, rid, &path));
    } else {
      OIB_RETURN_IF_ERROR(DescendToLeafWrite(key, rid, &leaf));
    }
    WritePageGuard* lg = pessimistic ? &path.back() : &leaf;
    BTreePage page(lg->data(), page_size());
    int pos = page.LowerBound(key, rid);
    if (pos < page.count() && page.CompareEntryAt(pos, key, rid) == 0) {
      // A live entry, or a tombstone over a tombstone: nothing to do.
      if ((page.FlagsAt(pos) & kEntryPseudoDeleted) == 0 ||
          (flags & kEntryPseudoDeleted) != 0) {
        return InsertResult::kAlreadyPresent;
      }
      OIB_RETURN_IF_ERROR(LogKeyOp(txn, lg, BtreeOp::kReactivate,
                                   KeyPayload{0, rid, key}, log_type));
      return InsertResult::kReactivated;
    }
    if (!page.HasSpaceFor(KeySlice(key))) {
      if (!pessimistic) continue;  // retry with the full path held
      OIB_RETURN_IF_ERROR(MakeRoomInLeaf(&path, key, rid, /*ib_mode=*/false));
      lg = &path.back();
    }
    OIB_RETURN_IF_ERROR(LogKeyOp(txn, lg, BtreeOp::kInsertKey,
                                 KeyPayload{flags, rid, key}, log_type));
    return InsertResult::kInserted;
  }
  return Status::Corruption("unreachable insert state");
}

StatusOr<BTree::DeleteResult> BTree::PseudoDelete(Transaction* txn,
                                                  std::string_view key,
                                                  const Rid& rid) {
  for (;;) {
    WritePageGuard leaf;
    OIB_RETURN_IF_ERROR(DescendToLeafWrite(key, rid, &leaf));
    BTreePage page(leaf.data(), page_size());
    int pos = page.FindExact(key, rid);
    if (pos >= 0) {
      if ((page.FlagsAt(pos) & kEntryPseudoDeleted) != 0) {
        return DeleteResult::kAlreadyPseudo;
      }
      OIB_RETURN_IF_ERROR(LogKeyOp(txn, &leaf, BtreeOp::kPseudoDelete,
                                   KeyPayload{0, rid, key},
                                   LogRecordType::kRedoOnly));
      return DeleteResult::kPseudoDeleted;
    }
    // Key absent: leave a tombstone so a later IB insert is rejected
    // (section 2.2.3, "IB and Delete Operations").
    leaf.Release();
    auto r = Insert(txn, key, rid, kEntryPseudoDeleted,
                    LogRecordType::kRedoOnly);
    if (!r.ok()) return r.status();
    if (*r == InsertResult::kAlreadyPresent) {
      // The section 1.2 race, live: between our lookup and the tombstone
      // insert, IB physically inserted the key.  Retry — this time the
      // entry is found and gets marked pseudo-deleted.
      continue;
    }
    return DeleteResult::kTombstoneInserted;
  }
}

Status BTree::PhysicalDelete(Transaction* txn, std::string_view key,
                             const Rid& rid, LogRecordType log_type) {
  WritePageGuard leaf;
  OIB_RETURN_IF_ERROR(DescendToLeafWrite(key, rid, &leaf));
  BTreePage page(leaf.data(), page_size());
  int pos = page.FindExact(key, rid);
  if (pos < 0) return Status::NotFound("key not in index");
  return LogKeyOp(txn, &leaf, BtreeOp::kPhysicalDelete,
                  KeyPayload{page.FlagsAt(pos), rid, key}, log_type);
}

Status BTree::GcRemove(std::string_view key, const Rid& rid) {
  WritePageGuard leaf;
  OIB_RETURN_IF_ERROR(DescendToLeafWrite(key, rid, &leaf));
  BTreePage page(leaf.data(), page_size());
  int pos = page.FindExact(key, rid);
  if (pos < 0) return Status::NotFound("key not in index");
  if ((page.FlagsAt(pos) & kEntryPseudoDeleted) == 0) {
    return Status::InvalidArgument("GC of a live key");
  }
  return LogKeyOp(nullptr, &leaf, BtreeOp::kGcRemove,
                  KeyPayload{kEntryPseudoDeleted, rid, key},
                  LogRecordType::kRedoOnly);
}

// ------------------------------ lookups ------------------------------

StatusOr<BTree::LookupResult> BTree::Lookup(std::string_view key,
                                            const Rid& rid) const {
  ReadPageGuard leaf;
  OIB_RETURN_IF_ERROR(DescendToLeafRead(key, rid, &leaf));
  BTreePage page(const_cast<char*>(leaf.data()), page_size());
  int pos = page.FindExact(key, rid);
  LookupResult r;
  if (pos >= 0) {
    r.found = true;
    r.pseudo_deleted = (page.FlagsAt(pos) & kEntryPseudoDeleted) != 0;
  }
  return r;
}

StatusOr<BTree::ValueMatch> BTree::FindKeyValue(std::string_view key) const {
  ReadPageGuard leaf;
  OIB_RETURN_IF_ERROR(
      DescendToLeafRead(key, Rid::MinusInfinity(), &leaf));
  ValueMatch best;
  for (;;) {
    BTreePage page(const_cast<char*>(leaf.data()), page_size());
    int pos = page.LowerBound(key, Rid::MinusInfinity());
    for (int i = pos; i < page.count(); ++i) {
      if (page.KeyAt(i) != key) return best;
      bool pseudo = (page.FlagsAt(i) & kEntryPseudoDeleted) != 0;
      if (!best.found || (best.pseudo_deleted && !pseudo)) {
        best.found = true;
        best.rid = page.RidAt(i);
        best.pseudo_deleted = pseudo;
      }
      if (!pseudo) return best;  // live match wins immediately
    }
    PageId next = page.next();
    if (next == kInvalidPageId) return best;
    // Matching values may continue on the right sibling.
    auto ng = pool_->FetchRead(next);
    if (!ng.ok()) return ng.status();
    leaf = std::move(*ng);
  }
}

// ----------------------- IB multi-key interface ----------------------

Status BTree::IbInsertBatch(Transaction* txn,
                            const std::vector<IndexKeyRef>& keys,
                            bool unique, const UniqueConflictFn& on_conflict,
                            IbStats* stats) {
  size_t i = 0;
  while (i < keys.size()) {
    // One descent per leaf-run: the "remembered path" effect of section
    // 2.2.3 — consecutive sorted keys land in the same leaf.
    std::vector<WritePageGuard> path;
    KeyBound high;
    OIB_RETURN_IF_ERROR(DescendPessimistic(keys[i].key, keys[i].rid, &path,
                                           /*ib_mode=*/true, &high));
    if (stats != nullptr) ++stats->descents;

    // Entries inserted into the current leaf but not yet logged: the
    // kBatchInsert payload, a full-key entry blob.
    std::string pending;
    InitEntryBlob(&pending);
    PageId pending_page = path.back().page_id();

    auto flush_pending = [&]() -> Status {
      if (EntryBlobCount(pending) == 0) return Status::OK();
      LogRecord rec = NewRecord(BtreeOp::kBatchInsert, pending_page,
                                LogRecordType::kUpdate);
      rec.redo.swap(pending);
      OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
      path.back().set_page_lsn(rec.lsn);
      if (stats != nullptr) ++stats->log_records;
      InitEntryBlob(&pending);
      return Status::OK();
    };

    // Upper bound of the current leaf = the parent-separator fence
    // captured during the descent.  The right sibling's first key is NOT
    // a safe proxy: recovery undo or GC can physically remove it, and a
    // run bounded by the drifted value would insert keys above this
    // leaf's high fence.  The fence itself only moves when this leaf
    // splits, which we alone can do while holding its X latch.
    auto leaf_covers = [&](std::string_view k, const Rid& r) -> bool {
      if (!high.valid) return true;  // rightmost edge: no upper bound
      return CompareIndexKey(k, r, high.key, high.rid) < 0;
    };

    while (i < keys.size()) {
      const IndexKeyRef& k = keys[i];
      if (k.key.size() > kMaxKeySize) {
        return Status::InvalidArgument("key too large");
      }
      if (!leaf_covers(k.key, k.rid)) break;  // next leaf: re-descend

      BTreePage page(path.back().data(), page_size());
      int pos = page.LowerBound(k.key, k.rid);
      bool exact =
          pos < page.count() && page.CompareEntryAt(pos, k.key, k.rid) == 0;
      if (exact) {
        // Duplicate <key,RID>: a transaction beat IB to it, or left a
        // tombstone; IB's insert is rejected with no log record
        // (sections 2.1.1, 2.2.3).
        if (stats != nullptr) {
          if ((page.FlagsAt(pos) & kEntryPseudoDeleted) != 0) {
            ++stats->skipped_tombstones;
          } else {
            ++stats->skipped_duplicates;
          }
        }
        ++i;
        continue;
      }
      if (unique) {
        // A value-equal neighbour under a different RID needs the unique
        // verification protocol (lock both records, recheck).
        for (int nb : {pos - 1, pos}) {
          if (nb < 0 || nb >= page.count()) continue;
          if (page.KeyAt(nb) != k.key) continue;
          Status s = on_conflict
                         ? on_conflict(k.key, page.RidAt(nb),
                                       (page.FlagsAt(nb) &
                                        kEntryPseudoDeleted) != 0,
                                       k.rid)
                         : Status::UniqueViolation("duplicate key value");
          if (!s.ok()) {
            OIB_RETURN_IF_ERROR(flush_pending());
            return s;
          }
        }
      }
      if (!page.HasSpaceFor(k.key) ||
          !WithinFillFactor(page, k.key.size())) {
        OIB_RETURN_IF_ERROR(flush_pending());
        // The leaf filled up under this descent, invalidating the
        // released-safe-ancestors invariant (path may be just [leaf]).
        // Re-descend with the leaf now full so the unsafe path is
        // retained, then split.  No latch is held in between, so a
        // transaction may insert this very entry first.
        path.clear();
        OIB_FAIL_POINT("btree.ib_split");
        OIB_RETURN_IF_ERROR(
            DescendPessimistic(k.key, k.rid, &path, /*ib_mode=*/true));
        if (stats != nullptr) ++stats->descents;
        OIB_RETURN_IF_ERROR(MakeRoomInLeaf(&path, k.key, k.rid,
                                           /*ib_mode=*/true));
        if (stats != nullptr) stats->splits = splits_.load();
        // The split moved this leaf's high fence; re-descend so the run
        // is bounded by the post-split fence, not the stale one.
        path.clear();
        OIB_RETURN_IF_ERROR(DescendPessimistic(k.key, k.rid, &path,
                                               /*ib_mode=*/true, &high));
        if (stats != nullptr) ++stats->descents;
        pending_page = path.back().page_id();
        continue;  // re-evaluate the same key on the new leaf
      }
      OIB_RETURN_IF_ERROR(ApplyKeyOp(&page, BtreeOp::kInsertKey,
                                     KeyPayload{0, k.rid, k.key}));
      NotifyInsert(k.key, k.rid, 0);
      AppendLeafBlobEntry(&pending, 0, k.rid, k.key);
      if (stats != nullptr) ++stats->inserted;
      ++i;
    }
    OIB_RETURN_IF_ERROR(flush_pending());
  }
  if (stats != nullptr) stats->splits = splits_.load();
  return Status::OK();
}

// ----------------------------- scans --------------------------------

Status BTree::ScanAll(const std::function<void(std::string_view, const Rid&,
                                               uint8_t)>& fn) const {
  ReadPageGuard leaf;
  OIB_RETURN_IF_ERROR(DescendToLeafRead("", Rid::MinusInfinity(), &leaf));
  for (;;) {
    BTreePage page(const_cast<char*>(leaf.data()), page_size());
    for (int i = 0; i < page.count(); ++i) {
      fn(page.KeyAt(i), page.RidAt(i), page.FlagsAt(i));
    }
    PageId next = page.next();
    if (next == kInvalidPageId) return Status::OK();
    auto ng = pool_->FetchRead(next);
    if (!ng.ok()) return ng.status();
    leaf = std::move(*ng);
  }
}

Status BTree::CollectLeaves(std::vector<PageId>* out) const {
  out->clear();
  ReadPageGuard leaf;
  OIB_RETURN_IF_ERROR(DescendToLeafRead("", Rid::MinusInfinity(), &leaf));
  for (;;) {
    out->push_back(leaf.page_id());
    BTreePage page(const_cast<char*>(leaf.data()), page_size());
    PageId next = page.next();
    if (next == kInvalidPageId) return Status::OK();
    auto ng = pool_->FetchRead(next);
    if (!ng.ok()) return ng.status();
    leaf = std::move(*ng);
  }
}

// ------------------------------ BtreeRm ------------------------------

Status BtreeRm::Redo(const LogRecord& rec) {
  BtreeOp op = static_cast<BtreeOp>(rec.opcode);
  size_t page_size = pool_->disk()->page_size();

  if (op == BtreeOp::kSplit) {
    SplitPayload p;
    OIB_RETURN_IF_ERROR(DecodeSplitPayload(rec.redo, &p));
    RedoPage np, split_page, parent;
    OIB_RETURN_IF_ERROR(np.Fetch(pool_, p.new_page, rec.lsn));
    OIB_RETURN_IF_ERROR(split_page.Fetch(pool_, rec.page_id, rec.lsn));
    OIB_RETURN_IF_ERROR(parent.Fetch(pool_, p.parent, rec.lsn));
    OIB_RETURN_IF_ERROR(ApplySplit(p, page_size, np.data(), split_page.data(),
                                   parent.data()));
    np.Stamp(rec.lsn);
    split_page.Stamp(rec.lsn);
    parent.Stamp(rec.lsn);
    return Status::OK();
  }

  if (op == BtreeOp::kNewRoot) {
    PageId anchor, old_root;
    uint8_t level;
    OIB_RETURN_IF_ERROR(
        DecodeNewRootPayload(rec.redo, &anchor, &old_root, &level));
    RedoPage root, anchor_page;
    OIB_RETURN_IF_ERROR(root.Fetch(pool_, rec.page_id, rec.lsn));
    OIB_RETURN_IF_ERROR(anchor_page.Fetch(pool_, anchor, rec.lsn));
    ApplyNewRoot(root.data(), anchor_page.data(), page_size, rec.page_id,
                 old_root, level);
    root.Stamp(rec.lsn);
    anchor_page.Stamp(rec.lsn);
    return Status::OK();
  }

  RedoPage target;
  OIB_RETURN_IF_ERROR(target.Fetch(pool_, rec.page_id, rec.lsn));
  if (!target.apply) return Status::OK();
  BTreePage page(target.data(), page_size);
  switch (op) {
    case BtreeOp::kFormat:
      if (rec.redo.size() < 2) return Status::Corruption("format redo");
      page.Init(rec.redo[0] != 0, static_cast<uint8_t>(rec.redo[1]));
      break;
    case BtreeOp::kInitAnchor: {
      BufferReader r(rec.redo);
      uint32_t root;
      if (!r.GetFixed32(&root)) return Status::Corruption("anchor redo");
      ApplyAnchorRoot(target.data(), root);
      break;
    }
    case BtreeOp::kBatchInsert:
      OIB_RETURN_IF_ERROR(ForEachBlobEntry(
          rec.redo, kLeafEntryHeader, [&](const BlobEntry& e) {
            return ApplyKeyOp(&page, BtreeOp::kInsertKey,
                              KeyPayload{e.flags(), e.rid(), e.key});
          }));
      break;
    default: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.redo, &kp));
      OIB_RETURN_IF_ERROR(ApplyKeyOp(&page, op, kp));
      break;
    }
  }
  target.Stamp(rec.lsn);
  return Status::OK();
}

Status BtreeRm::Undo(Transaction* txn, const LogRecord& rec) {
  if (!resolver_) return Status::Corruption("btree undo without resolver");
  BTree* tree = resolver_(rec.aux_id);
  if (tree == nullptr) {
    return Status::Corruption("btree undo: unknown index " +
                              std::to_string(rec.aux_id));
  }
  return tree->UndoKeyOp(txn, rec);
}

// Logical undo with CLRs.  Keys may have moved pages since the forward
// action, so every undo re-traverses from the root (ARIES/IM).  A CLR is
// the inverse key op logged and applied by LogKeyOp, as forward ops are.
Status BTree::UndoKeyOp(Transaction* txn, const LogRecord& rec) {
  BtreeOp op = static_cast<BtreeOp>(rec.opcode);

  auto undo_one = [&](const KeyPayload& kp, BtreeOp fwd, Lsn undo_next,
                      bool from_ib_batch = false) -> Status {
    WritePageGuard leaf;
    OIB_RETURN_IF_ERROR(DescendToLeafWrite(kp.key, kp.rid, &leaf));
    BTreePage page(leaf.data(), page_size());
    int pos = page.FindExact(kp.key, kp.rid);
    switch (fwd) {
      case BtreeOp::kInsertKey:
        if (pos < 0) return Status::NotFound("key vanished");
        if (from_ib_batch &&
            (page.FlagsAt(pos) & kEntryPseudoDeleted) != 0) {
          // A deleter tombstoned the entry after IB inserted it.  The
          // tombstone is the deleter's state, not IB's: leave it so the
          // resumed build's re-insert of this key is still rejected (the
          // record is gone).  A loser deleter's own undo reactivates it.
          return Status::OK();
        }
        return LogKeyOp(txn, &leaf, BtreeOp::kPhysicalDelete,
                        KeyPayload{page.FlagsAt(pos), kp.rid, kp.key},
                        LogRecordType::kClr, undo_next);
      case BtreeOp::kReactivate:
        if (pos < 0) return Status::NotFound("key vanished");
        return LogKeyOp(txn, &leaf, BtreeOp::kPseudoDelete,
                        KeyPayload{0, kp.rid, kp.key}, LogRecordType::kClr,
                        undo_next);
      case BtreeOp::kPhysicalDelete: {
        // Re-insert with the original flags (kept in the undo payload).
        if (pos >= 0) return Status::OK();  // already back (re-undo)
        leaf.Release();
        // May need splits: go through the pessimistic path.
        std::vector<WritePageGuard> path;
        OIB_RETURN_IF_ERROR(DescendPessimistic(kp.key, kp.rid, &path));
        OIB_RETURN_IF_ERROR(
            MakeRoomInLeaf(&path, kp.key, kp.rid, /*ib_mode=*/false));
        return LogKeyOp(txn, &path.back(), BtreeOp::kInsertKey, kp,
                        LogRecordType::kClr, undo_next);
      }
      default:
        return Status::Corruption("bad btree undo op");
    }
  };

  switch (op) {
    case BtreeOp::kInsertKey:
    case BtreeOp::kReactivate: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.redo, &kp));
      Status s = undo_one(kp, op, rec.prev_lsn);
      return s.IsNotFound() ? Status::OK() : s;
    }
    case BtreeOp::kPhysicalDelete: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.undo, &kp));
      return undo_one(kp, op, rec.prev_lsn);
    }
    case BtreeOp::kBatchInsert: {
      // Multi-entry undo: every CLR but the last points back at this
      // record, so a crash mid-undo re-runs the whole (idempotent,
      // skip-absent) batch; the last CLR releases it.
      const uint16_t n = EntryBlobCount(rec.redo);
      uint16_t j = 0;
      return ForEachBlobEntry(
          rec.redo, kLeafEntryHeader, [&](const BlobEntry& e) -> Status {
            Lsn undo_next = ++j == n ? rec.prev_lsn : rec.lsn;
            Status s = undo_one(KeyPayload{e.flags(), e.rid(), e.key},
                                BtreeOp::kInsertKey, undo_next,
                                /*from_ib_batch=*/true);
            return s.IsNotFound() ? Status::OK() : s;
          });
    }
    default:
      return Status::Corruption("undo of non-undoable btree op");
  }
}

}  // namespace oib
