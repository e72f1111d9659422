// BufferPool: fixed-size cache of pages with pin/unpin, CLOCK eviction, and
// the write-ahead-logging rule (a dirty page is written to disk only after
// the log is flushed up to that page's LSN).
//
// The pool is split into power-of-two *shards* keyed by PageId.  Each shard
// owns a slice of the frames with its own mutex, page table, free list and
// CLOCK hand, so fetches on different pages proceed in parallel instead of
// funnelling through one process-wide lock; a fetch hit touches one ref bit
// (the CLOCK "recently used" signal) instead of splicing an LRU list.
// Unpin is lock-free (atomic pin count + dirty bit), and FlushAll never
// holds a shard mutex across disk I/O or the WAL-flush hook.
//
// RAII page guards combine pin + latch acquisition in the safe order
// (pin first, then latch), so an evictable frame can never be latched.

#ifndef OIB_STORAGE_BUFFER_POOL_H_
#define OIB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace oib {

// Shared-latched, pinned view of a page.  Movable, not copyable.
class ReadPageGuard {
 public:
  ReadPageGuard() = default;
  explicit ReadPageGuard(Page* page) : page_(page) {}
  ReadPageGuard(ReadPageGuard&& o) noexcept { *this = std::move(o); }
  ReadPageGuard& operator=(ReadPageGuard&& o) noexcept;
  ~ReadPageGuard() { Release(); }

  ReadPageGuard(const ReadPageGuard&) = delete;
  ReadPageGuard& operator=(const ReadPageGuard&) = delete;

  bool valid() const { return page_ != nullptr; }
  const char* data() const { return page_->data(); }
  PageId page_id() const { return page_->page_id(); }
  Lsn page_lsn() const { return page_->page_lsn(); }

  // Unlatches and unpins early (idempotent).
  void Release();

 private:
  Page* page_ = nullptr;
};

// Exclusively-latched, pinned view of a page.  Marks the page dirty on
// release if the holder declared a modification via MarkDirty()/set_page_lsn.
class WritePageGuard {
 public:
  WritePageGuard() = default;
  explicit WritePageGuard(Page* page) : page_(page) {}
  WritePageGuard(WritePageGuard&& o) noexcept { *this = std::move(o); }
  WritePageGuard& operator=(WritePageGuard&& o) noexcept;
  ~WritePageGuard() { Release(); }

  WritePageGuard(const WritePageGuard&) = delete;
  WritePageGuard& operator=(const WritePageGuard&) = delete;

  bool valid() const { return page_ != nullptr; }
  char* data() { return page_->data(); }
  const char* data() const { return page_->data(); }
  PageId page_id() const { return page_->page_id(); }
  Lsn page_lsn() const { return page_->page_lsn(); }

  void MarkDirty() { dirty_ = true; }
  void set_page_lsn(Lsn lsn) {
    page_->set_page_lsn(lsn);
    dirty_ = true;
  }

  void Release();

 private:
  Page* page_ = nullptr;
  bool dirty_ = false;
};

class BufferPool {
 public:
  // Every shard keeps at least this many frames; a shard request that
  // would leave shards smaller is halved until it fits (tiny test pools
  // still want eviction to work inside each shard).
  static constexpr size_t kMinPagesPerShard = 4;

  // `shards` must be a power of two; 0 = auto (min(16, hw_concurrency)).
  BufferPool(DiskManager* disk, size_t pool_pages, size_t shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Called with a page LSN before a dirty page with that LSN is written to
  // disk; must flush the log at least that far (the WAL rule).
  void SetWalFlushHook(std::function<Status(Lsn)> hook) {
    wal_flush_ = std::move(hook);
  }

  // Guard-based accessors (preferred).
  StatusOr<ReadPageGuard> FetchRead(PageId page_id);
  StatusOr<WritePageGuard> FetchWrite(PageId page_id);
  // Allocates a fresh page and returns it exclusively latched.
  StatusOr<WritePageGuard> NewPage(PageId* page_id);
  // Same, but never reuses a freed page id (see DiskManager).
  StatusOr<WritePageGuard> NewPageNoReuse(PageId* page_id);

  // Writes one page / all dirty pages to disk (respecting the WAL rule).
  // Neither holds a shard mutex across the disk write or the WAL hook.
  Status FlushPage(PageId page_id);
  Status FlushAll();

  // Crash simulation: drops every frame without flushing.  Pins must be
  // released first (asserted).
  void DiscardAll();

  DiskManager* disk() { return disk_; }

  size_t shard_count() const { return shards_.size(); }

  // Cache-effectiveness counters, summed over the per-shard cells.  A hit
  // is a fetch served from a resident frame; a miss reads the page from
  // disk; fresh-page allocations count as neither.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

  // Registers bufferpool.{hits,misses,evictions} with `registry` (owner =
  // this pool; the destructor detaches them).  Exported as value callbacks
  // summing the per-shard counters.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  // One lock domain: a slice of the frames plus the bookkeeping for the
  // pages resident in them.  alignas keeps neighbouring shards' mutexes
  // and clock hands off each other's cache lines.
  struct alignas(obs::kCacheLineSize) Shard {
    sync::Mutex mu{sync::LockRank::kBufferShard, "bufferpool.shard.mu"};
    // page -> frame index
    std::unordered_map<PageId, size_t> table OIB_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Page>> frames OIB_GUARDED_BY(mu);
    std::vector<size_t> free_list OIB_GUARDED_BY(mu);  // free frame indexes
    size_t hand OIB_GUARDED_BY(mu) = 0;  // CLOCK sweep position
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter evictions;
  };

  Shard& ShardFor(PageId page_id) {
    return *shards_[static_cast<size_t>(page_id) & shard_mask_];
  }

  StatusOr<WritePageGuard> BindNewPage(PageId page_id);
  StatusOr<Page*> FetchPageLocked(Shard& s, PageId page_id)
      OIB_REQUIRES(s.mu);
  StatusOr<Page*> PinNewFrame(Shard& s, PageId page_id) OIB_REQUIRES(s.mu);
  // Frees one frame into s.free_list.
  Status EvictOne(Shard& s) OIB_REQUIRES(s.mu);

  DiskManager* disk_;
  std::function<Status(Lsn)> wal_flush_;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // set by AttachMetrics
};

}  // namespace oib

#endif  // OIB_STORAGE_BUFFER_POOL_H_
