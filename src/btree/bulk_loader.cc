#include "btree/bulk_loader.h"

#include "common/coding.h"
#include "common/failpoint.h"

namespace oib {

size_t BulkLoader::SoftCapacity() const {
  return static_cast<size_t>(
      static_cast<double>(pool_->disk()->page_size()) *
      options_->leaf_fill_factor);
}

StatusOr<PageId> BulkLoader::AllocPage(bool leaf, uint8_t level) {
  PageId id;
  auto guard = pool_->NewPage(&id);
  if (!guard.ok()) return guard.status();
  BTreePage page(guard->data(), pool_->disk()->page_size());
  page.Init(leaf, level);
  allocated_.push_back(id);
  dirty_.insert(id);
  guards_.resize(std::max(guards_.size(), static_cast<size_t>(level) + 1));
  guards_[level] = std::move(*guard);
  return id;
}

Status BulkLoader::Begin() {
  levels_.clear();
  guards_.clear();
  allocated_.clear();
  dirty_.clear();
  keys_loaded_ = 0;
  high_key_.clear();

  PageId root = tree_->root();
  auto guard = pool_->FetchWrite(root);
  if (!guard.ok()) return guard.status();
  BTreePage page(guard->data(), pool_->disk()->page_size());
  if (!page.is_leaf() || page.count() != 0) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  levels_.push_back(Level{root, root});
  guards_.clear();
  guards_.push_back(std::move(*guard));
  dirty_.insert(root);
  return Status::OK();
}

Status BulkLoader::Add(KeySlice key, const Rid& rid) {
  size_t page_size = pool_->disk()->page_size();
  BTreePage leaf(guards_[0].data(), page_size);
  // Physical-exact admission: under prefix truncation the entry's real
  // cost is EntryGrowth, so leaves whose keys share prefixes pack more
  // entries before hitting the fill factor.
  size_t growth = leaf.EntryGrowth(key);
  bool fits = growth <= leaf.FreeBytes() &&
              (leaf.count() == 0 ||
               (page_size - leaf.FreeBytes()) + growth <= SoftCapacity());
  if (!fits) {
    // Chain a new rightmost leaf.  The separator is the shortest prefix
    // of the new leaf's first key that still sorts above the old leaf's
    // last key (suffix truncation); a truncated separator carries a -inf
    // RID so every real (key, rid) >= it still routes right.
    std::string sep;
    Rid sep_rid = rid;
    if (TruncateSeparator(KeySlice(high_key_), key, &sep)) {
      sep_rid = Rid::MinusInfinity();
    } else {
      sep.assign(key.data(), key.size());
    }
    PageId old_leaf = levels_[0].cur;
    WritePageGuard old_guard = std::move(guards_[0]);
    auto new_id = AllocPage(/*leaf=*/true, 0);
    if (!new_id.ok()) return new_id.status();
    {
      BTreePage op(old_guard.data(), page_size);
      op.set_next(*new_id);
      old_guard.MarkDirty();
      // The closed leaf's next pointer changed after it may already have
      // been flushed by an earlier checkpoint: it is dirty again.
      dirty_.insert(old_leaf);
    }
    old_guard.Release();
    levels_[0].cur = *new_id;
    OIB_RETURN_IF_ERROR(AddToLevel(1, KeySlice(sep), sep_rid, *new_id));
    BTreePage np(guards_[0].data(), page_size);
    OIB_RETURN_IF_ERROR(np.InsertLeafAt(np.count(), key, rid, 0));
    guards_[0].MarkDirty();
    dirty_.insert(*new_id);
  } else {
    OIB_RETURN_IF_ERROR(leaf.InsertLeafAt(leaf.count(), key, rid, 0));
    guards_[0].MarkDirty();
    dirty_.insert(levels_[0].cur);
  }
  ++keys_loaded_;
  high_key_.assign(key.data(), key.size());
  high_rid_ = rid;
  // The appended entry bypassed the tree's mutation paths, so the loader
  // notifies the entry observer (the hash mirror) itself, still under
  // the leaf X latch.
  if (IndexEntryObserver* observer = tree_->entry_observer()) {
    OIB_FAIL_POINT("hash.populate");
    observer->OnLeafInsert(key.view(), rid, 0);
  }
  return Status::OK();
}

Status BulkLoader::AddToLevel(size_t i, KeySlice key, const Rid& rid,
                              PageId right_child) {
  size_t page_size = pool_->disk()->page_size();
  if (i >= levels_.size()) {
    // The level below just got its second page: grow a new top level
    // whose leftmost child is the level-below's first page.
    PageId below_first = levels_[i - 1].first;
    // AllocPage stores the guard at index `level`, which equals i here.
    WritePageGuard keep;  // guard slot may alias; AllocPage manages sizes
    (void)keep;
    auto new_id = AllocPage(/*leaf=*/false, static_cast<uint8_t>(i));
    if (!new_id.ok()) return new_id.status();
    BTreePage page(guards_[i].data(), page_size);
    page.set_leftmost_child(below_first);
    OIB_RETURN_IF_ERROR(page.InsertInternalAt(0, key, rid, right_child));
    guards_[i].MarkDirty();
    dirty_.insert(*new_id);
    levels_.push_back(Level{*new_id, *new_id});
    return Status::OK();
  }
  BTreePage page(guards_[i].data(), page_size);
  size_t growth = page.EntryGrowth(key);
  bool fits = growth <= page.FreeBytes() &&
              (page_size - page.FreeBytes()) + growth <= SoftCapacity();
  if (fits) {
    OIB_RETURN_IF_ERROR(
        page.InsertInternalAt(page.count(), key, rid, right_child));
    guards_[i].MarkDirty();
    dirty_.insert(levels_[i].cur);
    return Status::OK();
  }
  // Page full: the separator is pushed up; right_child becomes the new
  // page's leftmost child (mirrors the internal split rule).
  guards_[i].Release();
  auto new_id = AllocPage(/*leaf=*/false, static_cast<uint8_t>(i));
  if (!new_id.ok()) return new_id.status();
  BTreePage np(guards_[i].data(), page_size);
  np.set_leftmost_child(right_child);
  guards_[i].MarkDirty();
  dirty_.insert(*new_id);
  levels_[i].cur = *new_id;
  return AddToLevel(i + 1, key, rid, *new_id);
}

Status BulkLoader::Finish() {
  PageId new_root = levels_.back().cur;
  OIB_RETURN_IF_ERROR(ReleaseGuards());
  if (new_root != tree_->root()) {
    // Publish the new root.  This is the loader's only logged action: the
    // anchor must survive restart once the build commits.  The anchor is
    // latched before the record is logged, so a checkpoint's pool flush
    // cannot write it in between.
    auto anchor = pool_->FetchWrite(tree_->anchor_page());
    if (!anchor.ok()) return anchor.status();
    OIB_RETURN_IF_ERROR(tree_->SetRoot(&*anchor, new_root));
  }
  return Status::OK();
}

Status BulkLoader::ReleaseGuards() {
  for (auto& g : guards_) g.Release();
  return Status::OK();
}

Status BulkLoader::ReacquireGuards() {
  guards_.clear();
  guards_.resize(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    auto g = pool_->FetchWrite(levels_[i].cur);
    if (!g.ok()) return g.status();
    guards_[i] = std::move(*g);
  }
  return Status::OK();
}

StatusOr<std::string> BulkLoader::Checkpoint(const std::string& caller_state) {
  OIB_RETURN_IF_ERROR(ReleaseGuards());
  // "This checkpointing to stable storage is done after all the dirty
  // pages of the index have been written to disk" (3.2.4).  Pages
  // untouched since the previous checkpoint are already on disk.
  for (PageId id : dirty_) {
    OIB_RETURN_IF_ERROR(pool_->FlushPage(id));
  }
  dirty_.clear();
  OIB_RETURN_IF_ERROR(pool_->FlushPage(tree_->root()));
  for (const Level& l : levels_) {
    OIB_RETURN_IF_ERROR(pool_->FlushPage(l.cur));
  }

  std::string blob;
  PutLengthPrefixed(&blob, caller_state);
  PutFixed64(&blob, keys_loaded_);
  PutLengthPrefixed(&blob, high_key_);
  PutFixed32(&blob, high_rid_.page);
  PutFixed16(&blob, high_rid_.slot);
  PutFixed32(&blob, static_cast<uint32_t>(levels_.size()));
  for (const Level& l : levels_) {
    PutFixed32(&blob, l.cur);
    PutFixed32(&blob, l.first);
  }
  PutFixed32(&blob, static_cast<uint32_t>(allocated_.size()));
  for (PageId id : allocated_) PutFixed32(&blob, id);

  OIB_RETURN_IF_ERROR(ReacquireGuards());
  return blob;
}

StatusOr<std::string> BulkLoader::Resume(const std::string& blob) {
  BufferReader r(blob);
  std::string caller_state;
  uint16_t slot;
  uint32_t n_levels, n_alloc;
  if (!r.GetLengthPrefixed(&caller_state) || !r.GetFixed64(&keys_loaded_) ||
      !r.GetLengthPrefixed(&high_key_) || !r.GetFixed32(&high_rid_.page) ||
      !r.GetFixed16(&slot) || !r.GetFixed32(&n_levels)) {
    return Status::Corruption("bulk-loader checkpoint blob");
  }
  high_rid_.slot = slot;
  levels_.clear();
  for (uint32_t i = 0; i < n_levels; ++i) {
    Level l;
    if (!r.GetFixed32(&l.cur) || !r.GetFixed32(&l.first)) {
      return Status::Corruption("bulk-loader level entry");
    }
    levels_.push_back(l);
  }
  if (!r.GetFixed32(&n_alloc)) {
    return Status::Corruption("bulk-loader alloc list");
  }
  allocated_.clear();
  for (uint32_t i = 0; i < n_alloc; ++i) {
    PageId id;
    if (!r.GetFixed32(&id)) return Status::Corruption("alloc entry");
    allocated_.push_back(id);
  }

  // Truncate the rightmost branch: keys above the checkpointed high key
  // disappear (3.2.4).  The leaf also drops any post-checkpoint next link.
  size_t page_size = pool_->disk()->page_size();
  for (size_t i = 0; i < levels_.size(); ++i) {
    auto g = pool_->FetchWrite(levels_[i].cur);
    if (!g.ok()) return g.status();
    BTreePage page(g->data(), page_size);
    int cut = page.count();
    while (cut > 0 &&
           CompareIndexKey(page.KeyAt(cut - 1), page.RidAt(cut - 1),
                           high_key_, high_rid_) > 0) {
      --cut;
    }
    if (cut < page.count()) page.TruncateFrom(cut);
    if (page.is_leaf()) page.set_next(kInvalidPageId);
    g->MarkDirty();
    dirty_.insert(levels_[i].cur);
  }

  OIB_RETURN_IF_ERROR(ReacquireGuards());
  return caller_state;
}

Status BulkLoader::ResetToEmpty() {
  levels_.clear();
  guards_.clear();
  allocated_.clear();
  dirty_.clear();
  keys_loaded_ = 0;
  high_key_.clear();
  high_rid_ = Rid();

  PageId root = tree_->root();
  auto guard = pool_->FetchWrite(root);
  if (!guard.ok()) return guard.status();
  BTreePage page(guard->data(), pool_->disk()->page_size());
  page.Init(/*leaf=*/true, 0);
  guard->MarkDirty();
  levels_.push_back(Level{root, root});
  guards_.push_back(std::move(*guard));
  return Status::OK();
}

}  // namespace oib
