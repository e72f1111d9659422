#include "storage/buffer_pool.h"

#include <cassert>
#include <thread>

#include "common/failpoint.h"

namespace oib {

// ----------------------------- guards -----------------------------

ReadPageGuard& ReadPageGuard::operator=(ReadPageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    page_ = o.page_;
    o.page_ = nullptr;
  }
  return *this;
}

void ReadPageGuard::Release() {
  if (page_ != nullptr) {
    page_->UnlatchShared();
    page_->Unpin();
    page_ = nullptr;
  }
}

WritePageGuard& WritePageGuard::operator=(WritePageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    page_ = o.page_;
    dirty_ = o.dirty_;
    o.page_ = nullptr;
    o.dirty_ = false;
  }
  return *this;
}

void WritePageGuard::Release() {
  if (page_ != nullptr) {
    // The dirty bit goes up before the latch comes off: a FlushPage that
    // takes the latch next must see this change, or a checkpoint's pool
    // flush could skip a page whose record lies below its redo start.
    if (dirty_) page_->set_dirty(true);
    page_->UnlatchExclusive();
    if (dirty_) {
      // Sits between unlatch and unpin so tests can widen that window.
      FailPointHit hit;
      OIB_FAIL_POINT_HIT("bufferpool.release_write", hit);
      (void)hit;
    }
    page_->Unpin();
    page_ = nullptr;
    dirty_ = false;
  }
}

// --------------------------- BufferPool ---------------------------

namespace {

size_t PickShardCount(size_t requested, size_t pool_pages) {
  size_t shards = requested;
  if (shards == 0) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    shards = 16 < hw ? 16 : hw;
    // Round down to a power of two (hardware_concurrency need not be one).
    while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  }
  while (shards > 1 &&
         pool_pages / shards < BufferPool::kMinPagesPerShard) {
    shards /= 2;
  }
  return shards;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t pool_pages, size_t shards)
    : disk_(disk) {
  size_t n = PickShardCount(shards, pool_pages);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Shard i holds frames for pages with (page_id & mask) == i; spread
    // the remainder so shard sizes differ by at most one frame.
    size_t frames = pool_pages / n + (i < pool_pages % n ? 1 : 0);
    shard->frames.reserve(frames);
    shard->free_list.reserve(frames);
    for (size_t f = 0; f < frames; ++f) {
      shard->frames.push_back(std::make_unique<Page>(disk->page_size()));
      shard->free_list.push_back(frames - 1 - f);
    }
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->hits.value();
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->misses.value();
  return total;
}

uint64_t BufferPool::evictions() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->evictions.value();
  return total;
}

void BufferPool::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  registry->RegisterValueFn(
      "bufferpool.hits", [this] { return hits(); }, this);
  registry->RegisterValueFn(
      "bufferpool.misses", [this] { return misses(); }, this);
  registry->RegisterValueFn(
      "bufferpool.evictions", [this] { return evictions(); }, this);
  // Per-shard cells so the time-series sampler can plot the hit rate of
  // each lock domain separately (a single hot shard hides behind the sum).
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    std::string prefix = "bufferpool.shard" + std::to_string(i);
    registry->RegisterValueFn(
        prefix + ".hits", [shard] { return shard->hits.value(); }, this);
    registry->RegisterValueFn(
        prefix + ".misses", [shard] { return shard->misses.value(); }, this);
    registry->RegisterValueFn(
        prefix + ".evictions", [shard] { return shard->evictions.value(); },
        this);
  }
}

StatusOr<ReadPageGuard> BufferPool::FetchRead(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto r = FetchPageLocked(s, page_id);
    if (!r.ok()) return r.status();
    page = *r;
  }
  page->LatchShared();
  return ReadPageGuard(page);
}

StatusOr<WritePageGuard> BufferPool::FetchWrite(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto r = FetchPageLocked(s, page_id);
    if (!r.ok()) return r.status();
    page = *r;
  }
  page->LatchExclusive();
  return WritePageGuard(page);
}

StatusOr<WritePageGuard> BufferPool::NewPage(PageId* page_id) {
  auto alloc = disk_->AllocatePage();
  if (!alloc.ok()) return alloc.status();
  *page_id = *alloc;
  return BindNewPage(*page_id);
}

StatusOr<WritePageGuard> BufferPool::NewPageNoReuse(PageId* page_id) {
  auto alloc = disk_->AllocatePageNoReuse();
  if (!alloc.ok()) return alloc.status();
  *page_id = *alloc;
  return BindNewPage(*page_id);
}

StatusOr<WritePageGuard> BufferPool::BindNewPage(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto r = PinNewFrame(s, page_id);
    if (!r.ok()) return r.status();
    page = *r;
    // Fresh page: contents are zeroes; no disk read needed.
  }
  page->LatchExclusive();
  WritePageGuard guard(page);
  guard.MarkDirty();
  return guard;
}

StatusOr<Page*> BufferPool::FetchPageLocked(Shard& s, PageId page_id) {
  auto it = s.table.find(page_id);
  if (it != s.table.end()) {
    Page* page = s.frames[it->second].get();
    page->Pin();
    page->set_ref(true);
    s.hits.Inc();
    return page;
  }
  auto r = PinNewFrame(s, page_id);
  if (!r.ok()) return r.status();
  Page* page = *r;
  s.misses.Inc();
  Status st = disk_->ReadPage(page_id, page->data());
  if (!st.ok()) {
    // Roll back the frame binding.
    page->Unpin();
    page->set_page_id(kInvalidPageId);
    s.table.erase(page_id);
    for (size_t i = 0; i < s.frames.size(); ++i) {
      if (s.frames[i].get() == page) {
        s.free_list.push_back(i);
        break;
      }
    }
    return st;
  }
  return page;
}

StatusOr<Page*> BufferPool::PinNewFrame(Shard& s, PageId page_id) {
  if (s.free_list.empty()) {
    OIB_RETURN_IF_ERROR(EvictOne(s));
  }
  size_t idx = s.free_list.back();
  s.free_list.pop_back();
  Page* page = s.frames[idx].get();
  page->Reset(page_id);
  page->Pin();
  page->set_ref(true);
  s.table[page_id] = idx;
  return page;
}

Status BufferPool::EvictOne(Shard& s) {
  // CLOCK sweep: a frame whose ref bit is set gets a second chance (bit
  // cleared, hand moves on); an unpinned frame with a clear bit is the
  // victim.  Two full revolutions guarantee every unpinned frame has had
  // its bit cleared once, so finding nothing means everything is pinned.
  //
  // The dirty-victim write-back (WAL hook + disk write) runs under this
  // shard's mutex: it stalls only fetches hashing to the same shard, not
  // the whole pool, and keeps the frame from being re-fetched mid-write.
  const size_t n = s.frames.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    size_t idx = s.hand;
    s.hand = (s.hand + 1) % n;
    Page* page = s.frames[idx].get();
    if (page->page_id() == kInvalidPageId) continue;  // free frame
    if (page->pin_count() > 0) continue;
    if (page->ref()) {
      page->set_ref(false);
      continue;
    }
    PageId victim = page->page_id();
    if (page->is_dirty()) {
      // An injected write-back failure keeps the dirty page resident (the
      // fetch that triggered eviction fails instead), so no update is
      // lost — the page is written again on the next eviction attempt.
      OIB_FAIL_POINT("bufferpool.writeback");
      if (wal_flush_) OIB_RETURN_IF_ERROR(wal_flush_(page->page_lsn()));
      OIB_RETURN_IF_ERROR(disk_->WritePage(victim, page->data()));
    }
    s.table.erase(victim);
    page->set_page_id(kInvalidPageId);
    s.free_list.push_back(idx);
    s.evictions.Inc();
    return Status::OK();
  }
  return Status::Busy("buffer pool shard exhausted: all pages pinned");
}

Status BufferPool::FlushPage(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto it = s.table.find(page_id);
    if (it == s.table.end()) return Status::OK();  // not cached
    page = s.frames[it->second].get();
    page->Pin();
  }
  page->LatchShared();
  Status st;
  if (page->is_dirty()) {
    // Not the OIB_FAIL_POINT macro: an early return here would leak the
    // latch and pin, so the hit folds into `st` and unwinds normally.
    static FailPoint* const writeback_fp =
        FailPointRegistry::Instance().GetOrCreate("bufferpool.writeback");
    if (writeback_fp->armed()) st = writeback_fp->Act();
    if (st.ok() && wal_flush_) st = wal_flush_(page->page_lsn());
    if (st.ok()) st = disk_->WritePage(page_id, page->data());
    if (st.ok()) page->set_dirty(false);
  }
  page->UnlatchShared();
  page->Unpin();
  return st;
}

Status BufferPool::FlushAll() {
  // Collect resident ids per shard under that shard's mutex, then flush
  // them one by one: the I/O (and the WAL-flush hook it may invoke) runs
  // with no shard lock held.
  for (auto& shard : shards_) {
    std::vector<PageId> cached;
    {
      sync::MutexLock g(&shard->mu);
      cached.reserve(shard->table.size());
      for (const auto& [pid, idx] : shard->table) {
        (void)idx;
        cached.push_back(pid);
      }
    }
    for (PageId pid : cached) {
      OIB_RETURN_IF_ERROR(FlushPage(pid));
    }
  }
  return Status::OK();
}

void BufferPool::DiscardAll() {
  for (auto& shard : shards_) {
    sync::MutexLock g(&shard->mu);
    for (const auto& [pid, idx] : shard->table) {
      (void)pid;
      assert(shard->frames[idx]->pin_count() == 0 && "discard with live pins");
    }
    shard->table.clear();
    shard->free_list.clear();
    shard->hand = 0;
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      shard->frames[i]->Reset(kInvalidPageId);
      shard->free_list.push_back(shard->frames.size() - 1 - i);
    }
  }
}

}  // namespace oib
