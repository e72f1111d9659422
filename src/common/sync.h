// Annotated synchronization primitives with a static lock-rank registry.
//
// Every mutex in src/ is a sync::Mutex or sync::SharedMutex constructed
// with a LockRank and a name.  Two enforcement layers share that rank:
//
//  * Compile time (Clang only): the OIB_* macros below expand to Clang's
//    thread-safety capability attributes, so `-Werror=thread-safety`
//    rejects guarded-field access without the guarding mutex held and
//    REQUIRES/EXCLUDES contract violations.  On other compilers the
//    macros expand to nothing and the wrappers are thin forwarding shims.
//
//  * Run time (debug builds): each thread keeps a stack of held locks;
//    a blocking acquisition whose rank is not strictly above every held
//    rank aborts with both mutex names in the message.  This complements
//    the TSan CI job, which runs with detect_deadlocks=0 because frame
//    recycling in the buffer pool merges unrelated page-latch edges into
//    spurious inversion cycles (see .github/workflows/ci.yml).
//
// The rank lattice (ascending = outer -> inner acquisition order) is the
// machine-checked form of DESIGN.md section 6; change them together.
// Four deliberate carve-outs, each encoded as a rank property:
//
//  * kPageLatch is NESTABLE: crabbing acquires a child page latch while
//    holding the parent's (tree root -> leaf, heap head -> tail), so
//    equal-rank acquisition is allowed for this rank only.  The order
//    over live pages is acyclic by construction (always top-down).
//  * kDrainGate is EXEMPT: the ActiveBuild drain gate is acquired shared
//    *under* a data-page latch (visibility decision, record_manager.cc)
//    while page latches are acquired *under* the gate (side-file append,
//    final drain in sf_builder.cc).  That cycle is benign — the pages
//    latched under the gate are never the page latched above it, and the
//    gate_closing protocol bounds writer wait — but no total order can
//    express it, so the gate participates in recursion/release checking
//    only.
//  * kSideFileExtend is EXEMPT for the same disjoint-page-sets reason:
//    the Figure 2 undo hook appends side-file compensation entries while
//    the *data* page being undone is still latched, and a full tail
//    makes that append take extend_mu_; ExtendChain then latches
//    *side-file* pages (plus WAL/shard/disk mutexes) under extend_mu_.
//    A side-file chain page is never a data page, so the two directions
//    cannot close a cycle.
//  * Try-acquisitions skip the order check (failure is handled, so they
//    cannot deadlock) but successful ones still push onto the stack.
//
// Condition-variable waits release the mutex while blocked: CondVar pops
// the rank entry on entry and re-checks + re-pushes on wakeup.

#ifndef OIB_COMMON_SYNC_H_
#define OIB_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define OIB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define OIB_THREAD_ANNOTATION_(x)
#endif

#define OIB_CAPABILITY(x) OIB_THREAD_ANNOTATION_(capability(x))
#define OIB_SCOPED_CAPABILITY OIB_THREAD_ANNOTATION_(scoped_lockable)
#define OIB_GUARDED_BY(x) OIB_THREAD_ANNOTATION_(guarded_by(x))
#define OIB_PT_GUARDED_BY(x) OIB_THREAD_ANNOTATION_(pt_guarded_by(x))
#define OIB_REQUIRES(...) \
  OIB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define OIB_REQUIRES_SHARED(...) \
  OIB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define OIB_ACQUIRE(...) \
  OIB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define OIB_ACQUIRE_SHARED(...) \
  OIB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define OIB_RELEASE(...) \
  OIB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define OIB_RELEASE_SHARED(...) \
  OIB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define OIB_RELEASE_GENERIC(...) \
  OIB_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define OIB_TRY_ACQUIRE(...) \
  OIB_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define OIB_TRY_ACQUIRE_SHARED(...) \
  OIB_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define OIB_EXCLUDES(...) OIB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define OIB_ASSERT_CAPABILITY(x) \
  OIB_THREAD_ANNOTATION_(assert_capability(x))
#define OIB_RETURN_CAPABILITY(x) OIB_THREAD_ANNOTATION_(lock_returned(x))
#define OIB_NO_THREAD_SAFETY_ANALYSIS \
  OIB_THREAD_ANNOTATION_(no_thread_safety_analysis)

// The runtime rank checker rides on assertions: on in Debug, off in
// RelWithDebInfo/Release (zero overhead on the hot path), forceable for
// tooling that wants it in optimized builds.
#if !defined(NDEBUG) || defined(OIB_FORCE_RANK_CHECK)
#define OIB_RANK_CHECK 1
#else
#define OIB_RANK_CHECK 0
#endif

namespace oib {
namespace sync {

// Acquisition order lattice, ascending: holding rank R, a thread may
// block only on ranks > R (== R is allowed for nestable ranks; exempt
// ranks are ignored in both directions).  Gaps leave room for new locks.
enum class LockRank : uint16_t {
  kBuildPlan = 10,       // BuildPipeline scan-plan mutex (checkpoint persist
                         // runs under it: sorter writers -> RunStore, disk)
  kDrainGate = 20,       // ActiveBuild::gate — EXEMPT, see file comment
  kHeapExtend = 30,      // HeapFile::extend_mu_ (new page + relink under it)
  kSideFileExtend = 40,  // SideFile::extend_mu_ — EXEMPT, see file comment
  kTxnActive = 50,       // TransactionManager::mu_ (active-txn table)
  kPageLatch = 60,       // Page::latch_ — NESTABLE (crabbing)
  kBufferShard = 70,     // BufferPool Shard::mu (evict flushes WAL + disk
                         // under it; acquired under a parent page latch)
  kCatalog = 90,         // Catalog::mu_ (DDL; persist flushes WAL + disk
                         // under it; never latches a page)
  kHashShard = 95,       // HashIndex Shard::mu (probe/mirror; mirrored under
                         // a leaf page latch, probed with no latch held)
  kHeapHints = 100,      // HeapFile::hints_mu_ (under a page latch)
  kSideFileCount = 105,  // SideFile::count_mu_
  kLockTable = 110,      // LockManager::mu_ (+ cv_)
  kWalFlush = 120,       // LogManager::flush_mu_ (group-commit leader)
  kWalDrain = 130,       // LogManager::drain_mu_ (nested under flush_mu_)
  kRunStore = 140,       // RunStore::mu_ (spill store)
  kMergeQueue = 150,     // BuildPipeline merge/consume handoff queue
  kDisk = 160,           // DiskManager::mu_ (leaf; held across simulated IO)
  kFailPoint = 170,      // FailPointRegistry::mu_ (checked under latches)
  kStatsSampler = 175,   // obs::StatsSampler::mu_ (sample ring + lifecycle;
                         // the sampler thread snapshots the registry with
                         // this released, but kObs still nests above it)
  kObs = 180,            // MetricsRegistry::mu_ (registration/snapshot)
};

const char* LockRankName(LockRank rank);

// Dense 0-based index used by the per-rank lock-contention profiler
// (obs/lock_profile.cc).  Keep in sync with the enum above.
inline constexpr int kNumLockRanks = 20;
constexpr int LockRankIndex(LockRank rank) {
  switch (rank) {
    case LockRank::kBuildPlan:      return 0;
    case LockRank::kDrainGate:      return 1;
    case LockRank::kHeapExtend:     return 2;
    case LockRank::kSideFileExtend: return 3;
    case LockRank::kTxnActive:      return 4;
    case LockRank::kPageLatch:      return 5;
    case LockRank::kBufferShard:    return 6;
    case LockRank::kCatalog:        return 7;
    case LockRank::kHashShard:      return 8;
    case LockRank::kHeapHints:      return 9;
    case LockRank::kSideFileCount:  return 10;
    case LockRank::kLockTable:      return 11;
    case LockRank::kWalFlush:       return 12;
    case LockRank::kWalDrain:       return 13;
    case LockRank::kRunStore:       return 14;
    case LockRank::kMergeQueue:     return 15;
    case LockRank::kDisk:           return 16;
    case LockRank::kFailPoint:      return 17;
    case LockRank::kStatsSampler:   return 18;
    case LockRank::kObs:            return 19;
  }
  return 0;
}

// Equal-rank acquisition allowed (page-latch crabbing).
constexpr bool LockRankNestable(LockRank rank) {
  return rank == LockRank::kPageLatch;
}
// Excluded from the order check entirely (cyclic with page latches by
// design; recursion and release bookkeeping still apply).
constexpr bool LockRankExempt(LockRank rank) {
  return rank == LockRank::kDrainGate ||
         rank == LockRank::kSideFileExtend;
}

// True when the runtime rank checker is compiled in and active.
bool RankCheckActive();

// ---------------------------------------------------------------------------
// Lock-contention profiler hooks
// ---------------------------------------------------------------------------
//
// When enabled at runtime (Options::obs_lock_profile, or a bench calling
// SetLockProfileEnabled directly), every *contended* blocking acquisition
// records its wait time, and the hold that follows records its duration
// on release, into per-rank log-scaled histograms owned by
// obs/lock_profile.cc.  The design keeps the instrumented paths honest:
//
//  * the uncontended acquire path is a single try_lock atomic — no clock
//    reads, no histogram touches, nothing but the relaxed enabled-flag
//    load on top of the unprofiled build;
//  * only contended acquisitions pay for timestamps and recording, so the
//    profiler's cost is proportional to the contention it measures;
//  * shared (reader) acquisitions record wait time only — hold tracking
//    needs a per-owner cell, and readers are many.
//
// Defining OIB_NO_LOCK_PROFILE (cmake -DOIB_NO_LOCK_PROFILE=ON) compiles
// the whole mechanism out: the hooks become empty inlines, the enabled
// flag disappears, and Mutex/SharedMutex shrink back to bare wrappers.
#if !defined(OIB_NO_LOCK_PROFILE)
#define OIB_LOCK_PROFILE 1
#else
#define OIB_LOCK_PROFILE 0
#endif

namespace prof {
#if OIB_LOCK_PROFILE
extern std::atomic<bool> g_lock_profile_enabled;
inline bool Enabled() {
  return g_lock_profile_enabled.load(std::memory_order_relaxed);
}
// Defined in obs/lock_profile.cc (steady-clock read; called only on the
// contended path, so an out-of-line call is fine).
uint64_t NowNanos();
void RecordWait(LockRank rank, uint64_t wait_ns);
void RecordHold(LockRank rank, uint64_t hold_ns);
void SetEnabled(bool on);
#else
inline bool Enabled() { return false; }
inline uint64_t NowNanos() { return 0; }
inline void RecordWait(LockRank, uint64_t) {}
inline void RecordHold(LockRank, uint64_t) {}
inline void SetEnabled(bool) {}
#endif
}  // namespace prof

namespace internal {
#if OIB_RANK_CHECK
// All take the raw native-handle address as the lock identity.
void OnAcquire(const void* mu, LockRank rank, const char* name);     // checked
// Before the try_lock attempt: same-thread reacquisition is UB on the
// underlying mutex regardless of the attempt's outcome, so recursion is
// checked up front; order is not (a failed try cannot deadlock).
void OnTryAcquire(const void* mu, LockRank rank, const char* name);
void OnTryAcquired(const void* mu, LockRank rank, const char* name); // pushed
void OnRelease(const void* mu, const char* name);
#else
inline void OnAcquire(const void*, LockRank, const char*) {}
inline void OnTryAcquire(const void*, LockRank, const char*) {}
inline void OnTryAcquired(const void*, LockRank, const char*) {}
inline void OnRelease(const void*, const char*) {}
#endif
}  // namespace internal

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

class OIB_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() OIB_ACQUIRE() {
    internal::OnAcquire(&mu_, rank_, name_);
#if OIB_LOCK_PROFILE
    if (prof::Enabled()) {
      if (mu_.try_lock()) return;  // uncontended: one atomic, no stats
      uint64_t t0 = prof::NowNanos();
      mu_.lock();
      uint64_t t1 = prof::NowNanos();
      prof::RecordWait(rank_, t1 - t0);
      hold_start_ns_ = t1;
      return;
    }
#endif
    mu_.lock();
  }
  bool TryLock() OIB_TRY_ACQUIRE(true) {
    internal::OnTryAcquire(&mu_, rank_, name_);
    if (!mu_.try_lock()) return false;
    internal::OnTryAcquired(&mu_, rank_, name_);
    return true;
  }
  void Unlock() OIB_RELEASE() {
    internal::OnRelease(&mu_, name_);
#if OIB_LOCK_PROFILE
    if (hold_start_ns_ != 0) {
      prof::RecordHold(rank_, prof::NowNanos() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
#endif
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

  // BasicLockable interface for std interop (CondVar's wait internals);
  // invisible to the static analysis — annotated code uses Lock/Unlock.
  void lock() OIB_NO_THREAD_SAFETY_ANALYSIS { Lock(); }
  void unlock() OIB_NO_THREAD_SAFETY_ANALYSIS { Unlock(); }

 private:
  std::mutex mu_;
#if OIB_LOCK_PROFILE
  // Start of the current contended hold; written and cleared only by the
  // holder while the mutex is held, so plain (non-atomic) access is
  // race-free.  Zero = the current hold was uncontended (untracked).
  uint64_t hold_start_ns_ = 0;
#endif
  const LockRank rank_;
  const char* const name_;
};

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

class OIB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() OIB_ACQUIRE() {
    internal::OnAcquire(&mu_, rank_, name_);
#if OIB_LOCK_PROFILE
    if (prof::Enabled()) {
      if (mu_.try_lock()) return;  // uncontended: one atomic, no stats
      uint64_t t0 = prof::NowNanos();
      mu_.lock();
      uint64_t t1 = prof::NowNanos();
      prof::RecordWait(rank_, t1 - t0);
      hold_start_ns_ = t1;
      return;
    }
#endif
    mu_.lock();
  }
  bool TryLock() OIB_TRY_ACQUIRE(true) {
    internal::OnTryAcquire(&mu_, rank_, name_);
    if (!mu_.try_lock()) return false;
    internal::OnTryAcquired(&mu_, rank_, name_);
    return true;
  }
  void Unlock() OIB_RELEASE() {
    internal::OnRelease(&mu_, name_);
#if OIB_LOCK_PROFILE
    if (hold_start_ns_ != 0) {
      prof::RecordHold(rank_, prof::NowNanos() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
#endif
    mu_.unlock();
  }

  void LockShared() OIB_ACQUIRE_SHARED() {
    internal::OnAcquire(&mu_, rank_, name_);
#if OIB_LOCK_PROFILE
    // Shared acquisitions record wait only (see the prof file comment).
    if (prof::Enabled()) {
      if (mu_.try_lock_shared()) return;
      uint64_t t0 = prof::NowNanos();
      mu_.lock_shared();
      prof::RecordWait(rank_, prof::NowNanos() - t0);
      return;
    }
#endif
    mu_.lock_shared();
  }
  void UnlockShared() OIB_RELEASE_SHARED() {
    internal::OnRelease(&mu_, name_);
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
#if OIB_LOCK_PROFILE
  // See Mutex::hold_start_ns_; tracks exclusive holds only.
  uint64_t hold_start_ns_ = 0;
#endif
  const LockRank rank_;
  const char* const name_;
};

// ---------------------------------------------------------------------------
// Scoped guards
// ---------------------------------------------------------------------------

class OIB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) OIB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() OIB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Non-blocking variant: check owns_lock() after construction.
class OIB_SCOPED_CAPABILITY TryMutexLock {
 public:
  explicit TryMutexLock(Mutex* mu) OIB_TRY_ACQUIRE(true, mu)
      : mu_(mu), owned_(mu->TryLock()) {}
  ~TryMutexLock() OIB_RELEASE() {
    if (owned_) mu_->Unlock();
  }

  TryMutexLock(const TryMutexLock&) = delete;
  TryMutexLock& operator=(const TryMutexLock&) = delete;

  bool owns_lock() const { return owned_; }

 private:
  Mutex* const mu_;
  const bool owned_;
};

class OIB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) OIB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() OIB_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

class OIB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) OIB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() OIB_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Movable shared-ownership guard (the drain gate outlives the function
// that acquires it: PlanFor hands it to Maintain inside MaintPlan).  The
// static analysis cannot track ownership moves, so this class is opaque
// to it; the runtime checker still sees acquire/release.
class SharedLock {
 public:
  SharedLock() = default;
  explicit SharedLock(SharedMutex* mu) OIB_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu) {
    mu_->LockShared();
  }
  SharedLock(SharedLock&& o) noexcept : mu_(o.mu_) { o.mu_ = nullptr; }
  SharedLock& operator=(SharedLock&& o) noexcept {
    Release();
    mu_ = o.mu_;
    o.mu_ = nullptr;
    return *this;
  }
  ~SharedLock() OIB_NO_THREAD_SAFETY_ANALYSIS { Release(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

  bool owns_lock() const { return mu_ != nullptr; }
  void Release() OIB_NO_THREAD_SAFETY_ANALYSIS {
    if (mu_ != nullptr) {
      mu_->UnlockShared();
      mu_ = nullptr;
    }
  }

 private:
  SharedMutex* mu_ = nullptr;
};

// Movable exclusive guard over a SharedMutex (CloseGate returns one).
class UniqueLock {
 public:
  UniqueLock() = default;
  explicit UniqueLock(SharedMutex* mu) OIB_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu) {
    mu_->Lock();
  }
  UniqueLock(UniqueLock&& o) noexcept : mu_(o.mu_) { o.mu_ = nullptr; }
  UniqueLock& operator=(UniqueLock&& o) noexcept {
    Release();
    mu_ = o.mu_;
    o.mu_ = nullptr;
    return *this;
  }
  ~UniqueLock() OIB_NO_THREAD_SAFETY_ANALYSIS { Release(); }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  bool owns_lock() const { return mu_ != nullptr; }
  void Release() OIB_NO_THREAD_SAFETY_ANALYSIS {
    if (mu_ != nullptr) {
      mu_->Unlock();
      mu_ = nullptr;
    }
  }

 private:
  SharedMutex* mu_ = nullptr;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

// Condition variable bound to sync::Mutex.  Waits go through the mutex's
// BasicLockable shims, so the rank stack stays consistent: the entry is
// popped while blocked and re-checked + re-pushed on wakeup.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) OIB_REQUIRES(mu) OIB_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);
  }
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) OIB_REQUIRES(mu)
      OIB_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu, std::move(pred));
  }
  std::cv_status WaitUntil(Mutex& mu,
                           std::chrono::steady_clock::time_point deadline)
      OIB_REQUIRES(mu) OIB_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sync
}  // namespace oib

#endif  // OIB_COMMON_SYNC_H_
