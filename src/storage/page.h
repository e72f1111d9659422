// A buffer-pool frame holding one disk page, with its latch and pin state.
//
// Terminology follows the paper: a *latch* is the cheap physical-consistency
// lock on a page (share mode for readers, exclusive for updaters); it is
// completely distinct from transaction *locks* (see txn/lock_manager.h).
//
// Every page begins with an 8-byte page LSN (the LSN of the last log record
// describing a change to the page), as required by write-ahead logging.

#ifndef OIB_STORAGE_PAGE_H_
#define OIB_STORAGE_PAGE_H_

#include <atomic>
#include <memory>

#include "common/coding.h"
#include "common/sync.h"
#include "common/types.h"

namespace oib {

// Byte offset where type-specific page payload begins (after the page LSN).
inline constexpr size_t kPageHeaderLsnSize = 8;

class Page {
 public:
  explicit Page(size_t page_size)
      : size_(page_size), data_(new char[page_size]) {
    Reset(kInvalidPageId);
  }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  char* data() { return data_.get(); }
  const char* data() const { return data_.get(); }
  size_t size() const { return size_; }

  PageId page_id() const { return page_id_; }
  void set_page_id(PageId id) { page_id_ = id; }

  Lsn page_lsn() const { return DecodeFixed64(data_.get()); }
  void set_page_lsn(Lsn lsn) { EncodeFixed64(data_.get(), lsn); }

  // Atomic because the eviction path reads it under a shard mutex, while
  // a write guard sets it under the page X latch and FlushPage clears it
  // under the page S latch.  Relaxed is enough — the bit only gates whether a
  // flush writes the frame, and the data it guards is ordered by the
  // page latch / pool mutex themselves.
  bool is_dirty() const { return dirty_.load(std::memory_order_relaxed); }
  void set_dirty(bool d) { dirty_.store(d, std::memory_order_relaxed); }

  // Unpin releases and pin_count acquires: Unpin happens without any pool
  // lock, so the eviction path's `pin_count() == 0` check is the only
  // synchronization edge ordering the unpinner's page writes before the
  // evictor reads the frame contents for the disk write.
  int pin_count() const { return pin_count_.load(std::memory_order_acquire); }
  void Pin() { pin_count_.fetch_add(1, std::memory_order_relaxed); }
  void Unpin() { pin_count_.fetch_sub(1, std::memory_order_release); }

  // CLOCK reference bit: set on every fetch (the replacement policy's
  // "recently used" signal — one relaxed store instead of an LRU list
  // splice), cleared by the clock hand as it sweeps.
  bool ref() const { return ref_.load(std::memory_order_relaxed); }
  void set_ref(bool r) { ref_.store(r, std::memory_order_relaxed); }

  // Page latch.  S for readers, X for updaters; held only across short
  // critical sections, never across I/O initiated by the holder's caller.
  // Acquisition and release happen in different functions (RAII page
  // guards travel across call boundaries), which the static analysis
  // cannot follow — the latch is enforced by the runtime rank checker
  // only (rank kPageLatch, nestable for crabbing).
  void LatchShared() OIB_NO_THREAD_SAFETY_ANALYSIS { latch_.LockShared(); }
  void UnlatchShared() OIB_NO_THREAD_SAFETY_ANALYSIS {
    latch_.UnlockShared();
  }
  void LatchExclusive() OIB_NO_THREAD_SAFETY_ANALYSIS { latch_.Lock(); }
  void UnlatchExclusive() OIB_NO_THREAD_SAFETY_ANALYSIS { latch_.Unlock(); }
  bool TryLatchExclusive() OIB_NO_THREAD_SAFETY_ANALYSIS {
    return latch_.TryLock();
  }

  // Zeroes content and rebinds the frame to `id`.
  void Reset(PageId id) {
    page_id_ = id;
    dirty_.store(false, std::memory_order_relaxed);
    pin_count_.store(0, std::memory_order_relaxed);
    ref_.store(false, std::memory_order_relaxed);
    std::memset(data_.get(), 0, size_);
  }

 private:
  size_t size_;
  std::unique_ptr<char[]> data_;
  PageId page_id_ = kInvalidPageId;
  std::atomic<bool> dirty_{false};
  std::atomic<bool> ref_{false};
  std::atomic<int> pin_count_{0};
  sync::SharedMutex latch_{sync::LockRank::kPageLatch, "page.latch"};
};

}  // namespace oib

#endif  // OIB_STORAGE_PAGE_H_
