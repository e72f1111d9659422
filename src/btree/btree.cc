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

// Decoded view of one leaf entry from a SerializeEntries blob.
struct LeafEntryView {
  uint8_t flags;
  Rid rid;
  std::string_view key;
};

Status DecodeLeafEntriesBlob(std::string_view blob,
                             std::vector<LeafEntryView>* out) {
  BufferReader r(blob);
  uint16_t n;
  if (!r.GetFixed16(&n)) return Status::Corruption("leaf entry blob");
  out->clear();
  out->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t len;
    if (!r.GetFixed16(&len) || r.remaining() < len) {
      return Status::Corruption("leaf entry blob item");
    }
    std::string_view raw = blob.substr(r.position(), len);
    r.Skip(len);
    // Raw leaf entry: [flags u8][rid u32+u16][klen u16][key].
    if (raw.size() < 9) return Status::Corruption("leaf raw entry");
    LeafEntryView v;
    v.flags = static_cast<uint8_t>(raw[0]);
    v.rid = Rid(DecodeFixed32(raw.data() + 1), DecodeFixed16(raw.data() + 5));
    uint16_t klen = DecodeFixed16(raw.data() + 7);
    if (raw.size() < 9u + klen) return Status::Corruption("leaf raw entry");
    v.key = raw.substr(9, klen);
    out->push_back(v);
  }
  return Status::OK();
}

constexpr size_t kAnchorRootOff = 8;

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

Status BTree::Create() {
  auto anchor_guard = pool_->NewPage(&anchor_);
  if (!anchor_guard.ok()) return anchor_guard.status();
  PageId root_id;
  auto root_guard = pool_->NewPage(&root_id);
  if (!root_guard.ok()) return root_guard.status();
  BTreePage rp(root_guard->data(), page_size());
  rp.Init(/*leaf=*/true, /*level=*/0);
  {
    LogRecord rec;
    rec.type = LogRecordType::kRedoOnly;
    rec.rm_id = RmId::kBtree;
    rec.opcode = static_cast<uint8_t>(BtreeOp::kFormat);
    rec.page_id = root_id;
    rec.aux_id = index_id_;
    rec.redo.push_back(1);  // leaf
    rec.redo.push_back(0);  // level
    OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
    root_guard->set_page_lsn(rec.lsn);
  }
  {
    LogRecord rec;
    rec.type = LogRecordType::kRedoOnly;
    rec.rm_id = RmId::kBtree;
    rec.opcode = static_cast<uint8_t>(BtreeOp::kInitAnchor);
    rec.page_id = anchor_;
    rec.aux_id = index_id_;
    PutFixed32(&rec.redo, root_id);
    OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
    EncodeFixed32(anchor_guard->data() + kAnchorRootOff, root_id);
    anchor_guard->set_page_lsn(rec.lsn);
  }
  root_.store(root_id);
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
                                 size_t key_len_for_safety,
                                 std::vector<WritePageGuard>* path,
                                 bool ib_mode, KeyBound* high) {
  (void)key_len_for_safety;
  // A node is "safe" if it cannot possibly need a split on this insert;
  // ancestors above a safe node are released.  IB inserts split leaves
  // earlier (at the fill factor), so in ib_mode a leaf must also have
  // soft-capacity room to count as safe — otherwise the retained path
  // could be just [leaf] while a split is still required, and the split
  // would wrongly grow a new root above a non-root page.
  auto is_safe = [&](const BTreePage& page) {
    if (page.LogicalFreeBytes() < kSafeNodeFreeBytes) return false;
    if (ib_mode && page.is_leaf() && page.count() > 0) {
      size_t entry = 1 + 6 + 2 + kMaxKeySize + 2;
      return (page_size() - page.LogicalFreeBytes()) + entry <=
             LeafSoftCapacity();
    }
    return true;
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

  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kNewRoot);
  rec.page_id = new_root_id;
  rec.aux_id = index_id_;
  EncodeNewRootPayload(&rec.redo, anchor_, old_root_id, new_level);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));

  BTreePage np(new_root->data(), page_size());
  np.Init(/*leaf=*/false, new_level);
  np.set_leftmost_child(old_root_id);
  new_root->set_page_lsn(rec.lsn);

  EncodeFixed32(anchor_guard->data() + kAnchorRootOff, new_root_id);
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
  OIB_RETURN_IF_ERROR(
      SplitNode(path, &parent_idx, mid, &new_half, &psep_key, &psep_rid));
  if (CompareIndexKey(sep_key, sep_rid, psep_key, psep_rid) >= 0) {
    (*path)[parent_idx] = std::move(new_half);
  }
  *idx = parent_idx + 1;
  return Status::OK();
}

Status BTree::SplitNode(std::vector<WritePageGuard>* path, size_t* idx,
                        int split_at, WritePageGuard* new_guard,
                        std::string* out_sep_key, Rid* out_sep_rid) {
  if (*idx == 0) {
    // The topmost retained node is either safe (then it would not need a
    // split) or the root; grow the tree first.
    OIB_RETURN_IF_ERROR(GrowRoot(path));
    *idx = 1;
  }

  SplitPayload p;
  int moved_from;
  {
    BTreePage node((*path)[*idx].data(), page_size());
    bool leaf = node.is_leaf();
    int n = node.count();
    // Leaves allow split_at == 0 (IB "move all higher keys" case,
    // section 2.3.1); internal splits push entry[split_at] up, so they
    // need at least one entry on each side.
    assert(split_at >= 0 && split_at < n && (leaf || split_at > 0));
    p.is_leaf = leaf ? 1 : 0;
    p.level = node.level();
    p.sep_key = node.KeyAt(split_at);
    p.sep_rid = node.RidAt(split_at);
    if (leaf) {
      moved_from = split_at;
      p.new_leftmost = kInvalidPageId;
      p.new_next = node.next();
    } else {
      // The separator is pushed up; its child becomes the new page's
      // leftmost child.
      moved_from = split_at + 1;
      p.new_leftmost = node.ChildAt(split_at);
      p.new_next = kInvalidPageId;
    }
    p.moved = node.SerializeEntries(moved_from, n);
  }

  OIB_RETURN_IF_ERROR(EnsureParentHasRoom(path, idx, p.sep_key, p.sep_rid));
  p.parent = (*path)[*idx - 1].page_id();

  PageId new_id;
  auto ng = pool_->NewPage(&new_id);
  if (!ng.ok()) return ng.status();
  p.new_page = new_id;

  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kSplit);
  rec.page_id = (*path)[*idx].page_id();
  rec.aux_id = index_id_;
  EncodeSplitPayload(&rec.redo, p);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));

  // Apply: new page.
  {
    BTreePage np(ng->data(), page_size());
    np.Init(p.is_leaf != 0, p.level);
    np.set_leftmost_child(p.new_leftmost);
    OIB_RETURN_IF_ERROR(np.AppendSerialized(p.moved));
    np.set_next(p.new_next);
    ng->set_page_lsn(rec.lsn);
  }
  // Apply: old page.
  {
    BTreePage node((*path)[*idx].data(), page_size());
    node.TruncateFrom(p.is_leaf ? moved_from : split_at);
    if (p.is_leaf) node.set_next(new_id);
    (*path)[*idx].set_page_lsn(rec.lsn);
  }
  // Apply: parent.
  {
    BTreePage parent((*path)[*idx - 1].data(), page_size());
    int pos = parent.LowerBound(p.sep_key, p.sep_rid);
    OIB_RETURN_IF_ERROR(
        parent.InsertInternalAt(pos, p.sep_key, p.sep_rid, new_id));
    (*path)[*idx - 1].set_page_lsn(rec.lsn);
  }

  splits_.fetch_add(1);
  *new_guard = std::move(*ng);
  *out_sep_key = std::move(p.sep_key);
  *out_sep_rid = p.sep_rid;
  return Status::OK();
}

Status BTree::SplitEmptyRight(std::vector<WritePageGuard>* path, size_t idx,
                              std::string_view key, const Rid& rid) {
  if (idx == 0) {
    OIB_RETURN_IF_ERROR(GrowRoot(path));
    idx = 1;
  }

  SplitPayload p;
  {
    BTreePage node((*path)[idx].data(), page_size());
    assert(node.is_leaf());
    p.is_leaf = 1;
    p.level = 0;
    p.sep_key.assign(key.data(), key.size());
    p.sep_rid = rid;
    p.new_leftmost = kInvalidPageId;
    p.new_next = node.next();
    p.moved = node.SerializeEntries(node.count(), node.count());  // empty
  }

  OIB_RETURN_IF_ERROR(EnsureParentHasRoom(path, &idx, p.sep_key, p.sep_rid));
  p.parent = (*path)[idx - 1].page_id();

  PageId new_id;
  auto ng = pool_->NewPage(&new_id);
  if (!ng.ok()) return ng.status();
  p.new_page = new_id;

  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kSplit);
  rec.page_id = (*path)[idx].page_id();
  rec.aux_id = index_id_;
  EncodeSplitPayload(&rec.redo, p);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));

  {
    BTreePage np(ng->data(), page_size());
    np.Init(/*leaf=*/true, 0);
    np.set_next(p.new_next);
    ng->set_page_lsn(rec.lsn);
  }
  {
    BTreePage node((*path)[idx].data(), page_size());
    node.set_next(new_id);
    (*path)[idx].set_page_lsn(rec.lsn);
  }
  {
    BTreePage parent((*path)[idx - 1].data(), page_size());
    int pos = parent.LowerBound(p.sep_key, p.sep_rid);
    OIB_RETURN_IF_ERROR(
        parent.InsertInternalAt(pos, p.sep_key, p.sep_rid, new_id));
    (*path)[idx - 1].set_page_lsn(rec.lsn);
  }

  splits_.fetch_add(1);
  // The pending key belongs in the new (empty) right page.
  path->back() = std::move(*ng);
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
      has_room = leaf.HasSpaceFor(KeySlice(key));
      if (has_room && ib_mode && leaf.count() > 0) {
        // Respect the IB fill factor: leave free space in each leaf for
        // future inserts (section 2.2.3).  Measured logically so the fill
        // factor is independent of how well the leaf compresses.
        size_t entry = 1 + 6 + 2 + key.size() + 2;
        has_room = (page_size() - leaf.LogicalFreeBytes()) + entry <=
                   LeafSoftCapacity();
      }
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

    if (split_at >= n) {
      OIB_RETURN_IF_ERROR(SplitEmptyRight(path, leaf_idx, key, rid));
      // SplitEmptyRight re-aims path->back() at the empty right leaf.
    } else {
      WritePageGuard new_half;
      std::string sep_key;
      Rid sep_rid;
      OIB_RETURN_IF_ERROR(SplitNode(path, &leaf_idx, split_at, &new_half,
                                    &sep_key, &sep_rid));
      if (CompareIndexKey(key, rid, sep_key, sep_rid) >= 0) {
        (*path)[leaf_idx] = std::move(new_half);
      }
    }
    // Loop to re-check space on the (possibly new) target leaf.
  }
}

size_t BTree::LeafSoftCapacity() const {
  return static_cast<size_t>(static_cast<double>(page_size()) *
                             options_->leaf_fill_factor);
}

// ------------------------ logged page mutations ----------------------

Status BTree::LoggedLeafInsert(Transaction* txn, WritePageGuard* leaf,
                               int pos, std::string_view key, const Rid& rid,
                               uint8_t flags, LogRecordType type) {
  LogRecord rec;
  rec.type = type;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kInsertKey);
  rec.page_id = leaf->page_id();
  rec.aux_id = index_id_;
  EncodeKeyPayload(&rec.redo, flags, key, rid);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
  BTreePage page(leaf->data(), page_size());
  OIB_RETURN_IF_ERROR(page.InsertLeafAt(pos, key, rid, flags));
  leaf->set_page_lsn(rec.lsn);
  NotifyInsert(key, rid, flags);
  return Status::OK();
}

Status BTree::LoggedSetFlags(Transaction* txn, WritePageGuard* leaf, int pos,
                             std::string_view key, const Rid& rid,
                             BtreeOp op, LogRecordType type) {
  LogRecord rec;
  rec.type = type;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(op);
  rec.page_id = leaf->page_id();
  rec.aux_id = index_id_;
  EncodeKeyPayload(&rec.redo, 0, key, rid);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
  BTreePage page(leaf->data(), page_size());
  uint8_t new_flags =
      op == BtreeOp::kPseudoDelete ? kEntryPseudoDeleted : uint8_t{0};
  page.SetFlagsAt(pos, new_flags);
  leaf->set_page_lsn(rec.lsn);
  NotifySetFlags(key, rid, new_flags);
  return Status::OK();
}

Status BTree::LoggedLeafRemove(Transaction* txn, WritePageGuard* leaf,
                               int pos, std::string_view key,
                               const Rid& rid, LogRecordType type) {
  BTreePage page(leaf->data(), page_size());
  uint8_t old_flags = page.FlagsAt(pos);
  LogRecord rec;
  rec.type = type;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kPhysicalDelete);
  rec.page_id = leaf->page_id();
  rec.aux_id = index_id_;
  EncodeKeyPayload(&rec.redo, old_flags, key, rid);
  EncodeKeyPayload(&rec.undo, old_flags, key, rid);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
  page.RemoveAt(pos);
  leaf->set_page_lsn(rec.lsn);
  NotifyRemove(key, rid);
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
      OIB_RETURN_IF_ERROR(DescendPessimistic(key, rid, key.size(), &path));
    } else {
      OIB_RETURN_IF_ERROR(DescendToLeafWrite(key, rid, &leaf));
    }
    WritePageGuard* lg = pessimistic ? &path.back() : &leaf;
    BTreePage page(lg->data(), page_size());
    int pos = page.LowerBound(key, rid);
    bool exact = pos < page.count() && page.CompareEntryAt(pos, key, rid) == 0;
    if (exact) {
      uint8_t f = page.FlagsAt(pos);
      if ((f & kEntryPseudoDeleted) == 0) return InsertResult::kAlreadyPresent;
      if ((flags & kEntryPseudoDeleted) != 0) {
        // Tombstone over tombstone: nothing to do.
        return InsertResult::kAlreadyPresent;
      }
      OIB_RETURN_IF_ERROR(LoggedSetFlags(txn, lg, pos, key, rid,
                                         BtreeOp::kReactivate, log_type));
      return InsertResult::kReactivated;
    }
    if (!page.HasSpaceFor(KeySlice(key))) {
      if (!pessimistic) continue;  // retry with the full path held
      OIB_RETURN_IF_ERROR(MakeRoomInLeaf(&path, key, rid, /*ib_mode=*/false));
      lg = &path.back();
      BTreePage page2(lg->data(), page_size());
      pos = page2.LowerBound(key, rid);
      OIB_RETURN_IF_ERROR(
          LoggedLeafInsert(txn, lg, pos, key, rid, flags, log_type));
      return InsertResult::kInserted;
    }
    OIB_RETURN_IF_ERROR(
        LoggedLeafInsert(txn, lg, pos, key, rid, flags, log_type));
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
      OIB_RETURN_IF_ERROR(LoggedSetFlags(txn, &leaf, pos, key, rid,
                                         BtreeOp::kPseudoDelete,
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
  return LoggedLeafRemove(txn, &leaf, pos, key, rid, log_type);
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
  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kBtree;
  rec.opcode = static_cast<uint8_t>(BtreeOp::kGcRemove);
  rec.page_id = leaf.page_id();
  rec.aux_id = index_id_;
  EncodeKeyPayload(&rec.redo, kEntryPseudoDeleted, key, rid);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  page.RemoveAt(pos);
  leaf.set_page_lsn(rec.lsn);
  NotifyRemove(key, rid);
  return Status::OK();
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
    OIB_RETURN_IF_ERROR(DescendPessimistic(
        keys[i].key, keys[i].rid, keys[i].key.size(), &path,
        /*ib_mode=*/true, &high));
    if (stats != nullptr) ++stats->descents;

    // Pending entries inserted into the current leaf but not yet logged.
    std::string pending_blob;
    uint16_t pending_count = 0;
    PageId pending_page = path.back().page_id();

    auto flush_pending = [&]() -> Status {
      if (pending_count == 0) return Status::OK();
      LogRecord rec;
      rec.type = LogRecordType::kUpdate;
      rec.rm_id = RmId::kBtree;
      rec.opcode = static_cast<uint8_t>(BtreeOp::kBatchInsert);
      rec.page_id = pending_page;
      rec.aux_id = index_id_;
      PutFixed16(&rec.redo, pending_count);
      rec.redo.append(pending_blob);
      OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &rec));
      path.back().set_page_lsn(rec.lsn);
      if (stats != nullptr) ++stats->log_records;
      pending_blob.clear();
      pending_count = 0;
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

    bool leaf_done = false;
    while (i < keys.size() && !leaf_done) {
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
      // Space check against the soft (fill-factor) capacity, in logical
      // bytes so compression does not loosen the fill factor.
      size_t entry = 1 + 6 + 2 + k.key.size() + 2;
      bool fits = page.HasSpaceFor(k.key) &&
                  (page.count() == 0 ||
                   (page_size() - page.LogicalFreeBytes()) + entry <=
                       LeafSoftCapacity());
      if (!fits) {
        OIB_RETURN_IF_ERROR(flush_pending());
        // The leaf filled up under this descent, invalidating the
        // released-safe-ancestors invariant (path may be just [leaf]).
        // Re-descend with the leaf now full so the unsafe path is
        // retained, then split.  No latch is held in between, so a
        // transaction may insert this very entry first.
        path.clear();
        OIB_FAIL_POINT("btree.ib_split");
        OIB_RETURN_IF_ERROR(DescendPessimistic(k.key, k.rid, k.key.size(),
                                               &path, /*ib_mode=*/true));
        if (stats != nullptr) ++stats->descents;
        OIB_RETURN_IF_ERROR(MakeRoomInLeaf(&path, k.key, k.rid,
                                           /*ib_mode=*/true));
        if (stats != nullptr) stats->splits = splits_.load();
        // The split moved this leaf's high fence; re-descend so the run
        // is bounded by the post-split fence, not the stale one.
        path.clear();
        OIB_RETURN_IF_ERROR(DescendPessimistic(k.key, k.rid, k.key.size(),
                                               &path, /*ib_mode=*/true,
                                               &high));
        if (stats != nullptr) ++stats->descents;
        pending_page = path.back().page_id();
        continue;  // re-evaluate the same key on the new leaf
      }
      BTreePage page2(path.back().data(), page_size());
      int pos2 = page2.LowerBound(k.key, k.rid);
      OIB_RETURN_IF_ERROR(page2.InsertLeafAt(pos2, k.key, k.rid, 0));
      NotifyInsert(k.key, k.rid, 0);
      std::string raw;
      raw.push_back(0);  // flags
      PutFixed32(&raw, k.rid.page);
      PutFixed16(&raw, k.rid.slot);
      PutFixed16(&raw, static_cast<uint16_t>(k.key.size()));
      raw.append(k.key.data(), k.key.size());
      PutFixed16(&pending_blob, static_cast<uint16_t>(raw.size()));
      pending_blob.append(raw);
      ++pending_count;
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
    {
      auto ng = pool_->FetchWrite(p.new_page);
      if (!ng.ok()) return ng.status();
      if (ng->page_lsn() < rec.lsn) {
        BTreePage np(ng->data(), page_size);
        np.Init(p.is_leaf != 0, p.level);
        np.set_leftmost_child(p.new_leftmost);
        OIB_RETURN_IF_ERROR(np.AppendSerialized(p.moved));
        np.set_next(p.new_next);
        ng->set_page_lsn(rec.lsn);
      }
    }
    {
      auto og = pool_->FetchWrite(rec.page_id);
      if (!og.ok()) return og.status();
      if (og->page_lsn() < rec.lsn) {
        BTreePage node(og->data(), page_size);
        int cut = node.LowerBound(p.sep_key, p.sep_rid);
        node.TruncateFrom(cut);
        if (p.is_leaf) node.set_next(p.new_page);
        og->set_page_lsn(rec.lsn);
      }
    }
    if (p.parent != kInvalidPageId) {
      auto pg = pool_->FetchWrite(p.parent);
      if (!pg.ok()) return pg.status();
      if (pg->page_lsn() < rec.lsn) {
        BTreePage parent(pg->data(), page_size);
        int pos = parent.LowerBound(p.sep_key, p.sep_rid);
        OIB_RETURN_IF_ERROR(
            parent.InsertInternalAt(pos, p.sep_key, p.sep_rid, p.new_page));
        pg->set_page_lsn(rec.lsn);
      }
    }
    return Status::OK();
  }

  if (op == BtreeOp::kNewRoot) {
    PageId anchor, old_root;
    uint8_t level;
    OIB_RETURN_IF_ERROR(
        DecodeNewRootPayload(rec.redo, &anchor, &old_root, &level));
    {
      auto rg = pool_->FetchWrite(rec.page_id);
      if (!rg.ok()) return rg.status();
      if (rg->page_lsn() < rec.lsn) {
        BTreePage np(rg->data(), page_size);
        np.Init(/*leaf=*/false, level);
        np.set_leftmost_child(old_root);
        rg->set_page_lsn(rec.lsn);
      }
    }
    {
      auto ag = pool_->FetchWrite(anchor);
      if (!ag.ok()) return ag.status();
      if (ag->page_lsn() < rec.lsn) {
        EncodeFixed32(ag->data() + kAnchorRootOff, rec.page_id);
        ag->set_page_lsn(rec.lsn);
      }
    }
    return Status::OK();
  }

  auto guard = pool_->FetchWrite(rec.page_id);
  if (!guard.ok()) return guard.status();
  if (guard->page_lsn() >= rec.lsn) return Status::OK();
  BTreePage page(guard->data(), page_size);

  switch (op) {
    case BtreeOp::kFormat: {
      if (rec.redo.size() < 2) return Status::Corruption("format redo");
      page.Init(rec.redo[0] != 0, static_cast<uint8_t>(rec.redo[1]));
      break;
    }
    case BtreeOp::kInitAnchor: {
      BufferReader r(rec.redo);
      uint32_t root;
      if (!r.GetFixed32(&root)) return Status::Corruption("anchor redo");
      EncodeFixed32(guard->data() + kAnchorRootOff, root);
      break;
    }
    case BtreeOp::kInsertKey: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.redo, &kp));
      int pos = page.LowerBound(kp.key, kp.rid);
      OIB_RETURN_IF_ERROR(
          page.InsertLeafAt(pos, kp.key, kp.rid, kp.flags));
      break;
    }
    case BtreeOp::kPseudoDelete:
    case BtreeOp::kReactivate: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.redo, &kp));
      int pos = page.FindExact(kp.key, kp.rid);
      if (pos < 0) return Status::Corruption("redo flag on absent key");
      page.SetFlagsAt(pos, op == BtreeOp::kPseudoDelete
                               ? kEntryPseudoDeleted
                               : 0);
      break;
    }
    case BtreeOp::kPhysicalDelete:
    case BtreeOp::kGcRemove: {
      KeyPayload kp;
      OIB_RETURN_IF_ERROR(DecodeKeyPayload(rec.redo, &kp));
      int pos = page.FindExact(kp.key, kp.rid);
      if (pos < 0) return Status::Corruption("redo remove of absent key");
      page.RemoveAt(pos);
      break;
    }
    case BtreeOp::kBatchInsert: {
      std::vector<LeafEntryView> entries;
      OIB_RETURN_IF_ERROR(DecodeLeafEntriesBlob(rec.redo, &entries));
      for (const LeafEntryView& e : entries) {
        int pos = page.LowerBound(e.key, e.rid);
        OIB_RETURN_IF_ERROR(page.InsertLeafAt(pos, e.key, e.rid, e.flags));
      }
      break;
    }
    default:
      return Status::Corruption("unknown btree redo opcode");
  }
  guard->set_page_lsn(rec.lsn);
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
// action, so every undo re-traverses from the root (ARIES/IM).
Status BTree::UndoKeyOp(Transaction* txn, const LogRecord& rec) {
  BtreeOp op = static_cast<BtreeOp>(rec.opcode);

  auto undo_one = [&](const KeyPayload& kp, BtreeOp fwd, Lsn undo_next,
                      bool from_ib_batch = false) -> Status {
    WritePageGuard leaf;
    OIB_RETURN_IF_ERROR(DescendToLeafWrite(kp.key, kp.rid, &leaf));
    BTreePage page(leaf.data(), page_size());
    int pos = page.FindExact(kp.key, kp.rid);
    LogRecord clr;
    clr.rm_id = RmId::kBtree;
    clr.aux_id = index_id_;
    clr.page_id = leaf.page_id();
    clr.type = LogRecordType::kClr;
    clr.undo_next_lsn = undo_next;
    switch (fwd) {
      case BtreeOp::kInsertKey: {
        if (pos < 0) return Status::NotFound("key vanished");
        if (from_ib_batch &&
            (page.FlagsAt(pos) & kEntryPseudoDeleted) != 0) {
          // A deleter tombstoned the entry after IB inserted it.  The
          // tombstone is the deleter's state, not IB's: leave it so the
          // resumed build's re-insert of this key is still rejected (the
          // record is gone).  A loser deleter's own undo reactivates it.
          return Status::OK();
        }
        clr.opcode = static_cast<uint8_t>(BtreeOp::kPhysicalDelete);
        EncodeKeyPayload(&clr.redo, page.FlagsAt(pos), kp.key, kp.rid);
        OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &clr));
        page.RemoveAt(pos);
        leaf.set_page_lsn(clr.lsn);
        NotifyRemove(kp.key, kp.rid);
        return Status::OK();
      }
      case BtreeOp::kReactivate: {
        if (pos < 0) return Status::NotFound("key vanished");
        clr.opcode = static_cast<uint8_t>(BtreeOp::kPseudoDelete);
        EncodeKeyPayload(&clr.redo, 0, kp.key, kp.rid);
        OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &clr));
        page.SetFlagsAt(pos, kEntryPseudoDeleted);
        leaf.set_page_lsn(clr.lsn);
        NotifySetFlags(kp.key, kp.rid, kEntryPseudoDeleted);
        return Status::OK();
      }
      case BtreeOp::kPhysicalDelete: {
        // Re-insert with the original flags (kept in the undo payload).
        if (pos >= 0) return Status::OK();  // already back (re-undo)
        leaf.Release();
        // May need splits: go through the pessimistic path.
        std::vector<WritePageGuard> path;
        OIB_RETURN_IF_ERROR(
            DescendPessimistic(kp.key, kp.rid, kp.key.size(), &path));
        OIB_RETURN_IF_ERROR(
            MakeRoomInLeaf(&path, kp.key, kp.rid, /*ib_mode=*/false));
        BTreePage lp(path.back().data(), page_size());
        int ipos = lp.LowerBound(kp.key, kp.rid);
        clr.page_id = path.back().page_id();
        clr.opcode = static_cast<uint8_t>(BtreeOp::kInsertKey);
        EncodeKeyPayload(&clr.redo, kp.flags, kp.key, kp.rid);
        OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &clr));
        OIB_RETURN_IF_ERROR(
            lp.InsertLeafAt(ipos, kp.key, kp.rid, kp.flags));
        path.back().set_page_lsn(clr.lsn);
        NotifyInsert(kp.key, kp.rid, kp.flags);
        return Status::OK();
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
      std::vector<LeafEntryView> entries;
      OIB_RETURN_IF_ERROR(DecodeLeafEntriesBlob(rec.redo, &entries));
      // Multi-entry undo: every CLR but the last points back at this
      // record, so a crash mid-undo re-runs the whole (idempotent,
      // skip-absent) batch; the last CLR releases it.
      for (size_t j = 0; j < entries.size(); ++j) {
        const LeafEntryView& e = entries[j];
        KeyPayload kp{e.flags, e.rid, e.key};
        Lsn undo_next =
            (j + 1 == entries.size()) ? rec.prev_lsn : rec.lsn;
        Status s = undo_one(kp, BtreeOp::kInsertKey, undo_next,
                            /*from_ib_batch=*/true);
        if (!s.ok() && !s.IsNotFound()) return s;
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("undo of non-undoable btree op");
  }
}

}  // namespace oib
