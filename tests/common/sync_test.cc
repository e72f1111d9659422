// Tests for the ranked-mutex layer (common/sync.h).
//
// The interesting assertions are death tests: the runtime rank checker
// aborts the process on lock-discipline violations, so each violation runs
// in a forked child via EXPECT_DEATH and we match the diagnostic, which
// must name BOTH mutexes involved.  The checker is only compiled into
// debug builds (or with OIB_FORCE_RANK_CHECK); in release builds the
// death tests skip and only the pass-through behaviour is exercised.

#include "common/sync.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "gtest/gtest.h"

namespace oib {
namespace sync {
namespace {

#define SKIP_IF_NO_RANK_CHECK()                                     \
  do {                                                              \
    if (!RankCheckActive()) {                                       \
      GTEST_SKIP() << "rank checker compiled out (release build)";  \
    }                                                               \
  } while (0)

TEST(SyncTest, LockUnlockRoundTrip) {
  Mutex mu(LockRank::kObs, "test.roundtrip");
  mu.Lock();
  mu.Unlock();
  MutexLock g(&mu);
}

TEST(SyncTest, AscendingRanksNest) {
  Mutex outer(LockRank::kBuildPlan, "test.outer");
  Mutex mid(LockRank::kCatalog, "test.mid");
  Mutex inner(LockRank::kObs, "test.inner");
  MutexLock a(&outer);
  MutexLock b(&mid);
  MutexLock c(&inner);
}

TEST(SyncTest, SharedMutexReadersShare) {
  SharedMutex mu(LockRank::kCatalog, "test.shared");
  mu.LockShared();
  std::atomic<bool> got{false};
  std::thread t([&] {
    ReaderMutexLock g(&mu);
    got.store(true);
  });
  t.join();
  EXPECT_TRUE(got.load());
  mu.UnlockShared();
  WriterMutexLock w(&mu);
}

TEST(SyncTest, TryLockReportsContention) {
  Mutex mu(LockRank::kObs, "test.try");
  {
    TryMutexLock g(&mu);
    ASSERT_TRUE(g.owns_lock());
    std::atomic<bool> other_got{true};
    std::thread t([&] {
      TryMutexLock h(&mu);
      other_got.store(h.owns_lock());
    });
    t.join();
    EXPECT_FALSE(other_got.load());
  }
  TryMutexLock again(&mu);
  EXPECT_TRUE(again.owns_lock());
}

TEST(SyncTest, MovableUniqueLockTransfersOwnership) {
  SharedMutex mu(LockRank::kDrainGate, "test.movable");
  UniqueLock a(&mu);
  EXPECT_TRUE(a.owns_lock());
  UniqueLock b(std::move(a));
  EXPECT_FALSE(a.owns_lock());
  EXPECT_TRUE(b.owns_lock());
  b.Release();
  EXPECT_FALSE(b.owns_lock());
  // Releasable again without effect, and the mutex is free.
  b.Release();
  WriterMutexLock w(&mu);
}

TEST(SyncTest, MovableSharedLockTransfersOwnership) {
  SharedMutex mu(LockRank::kDrainGate, "test.movable.shared");
  SharedLock a(&mu);
  SharedLock b(std::move(a));
  EXPECT_FALSE(a.owns_lock());
  EXPECT_TRUE(b.owns_lock());
  b.Release();
  WriterMutexLock w(&mu);
}

// ---- runtime rank checker ----

TEST(SyncDeathTest, OutOfOrderAcquisitionAbortsNamingBothMutexes) {
  SKIP_IF_NO_RANK_CHECK();
  Mutex high(LockRank::kWalFlush, "test.held_high");
  Mutex low(LockRank::kBufferShard, "test.acquired_low");
  MutexLock g(&high);
  // The diagnostic must name the acquired mutex AND the held one.
  EXPECT_DEATH({ MutexLock h(&low); },
               "test\\.acquired_low.*test\\.held_high");
}

TEST(SyncDeathTest, EqualRankNonNestableAborts) {
  SKIP_IF_NO_RANK_CHECK();
  Mutex a(LockRank::kCatalog, "test.rank_a");
  Mutex b(LockRank::kCatalog, "test.rank_b");
  MutexLock g(&a);
  EXPECT_DEATH({ MutexLock h(&b); }, "test\\.rank_b.*test\\.rank_a");
}

TEST(SyncDeathTest, RecursiveAcquisitionAborts) {
  SKIP_IF_NO_RANK_CHECK();
  Mutex mu(LockRank::kObs, "test.recursive");
  MutexLock g(&mu);
  EXPECT_DEATH({ mu.Lock(); }, "test\\.recursive");
}

TEST(SyncDeathTest, RecursiveTryLockAborts) {
  SKIP_IF_NO_RANK_CHECK();
  // Same-thread TryLock on a held std::mutex is UB, so the checker must
  // abort even though try-locks are exempt from the order check.
  Mutex mu(LockRank::kObs, "test.recursive_try");
  MutexLock g(&mu);
  EXPECT_DEATH({ TryMutexLock h(&mu); }, "test\\.recursive_try");
}

TEST(SyncDeathTest, ReleasingUnheldMutexAborts) {
  SKIP_IF_NO_RANK_CHECK();
  Mutex mu(LockRank::kObs, "test.not_held");
  EXPECT_DEATH({ mu.Unlock(); }, "test\\.not_held.*not held");
}

TEST(SyncTest, TryLockSkipsOrderCheck) {
  SKIP_IF_NO_RANK_CHECK();
  // A successful try-lock against rank order must NOT abort: it cannot
  // deadlock (failure is an immediate return, not a wait).
  Mutex high(LockRank::kWalFlush, "test.try_high");
  Mutex low(LockRank::kBufferShard, "test.try_low");
  MutexLock g(&high);
  TryMutexLock h(&low);
  EXPECT_TRUE(h.owns_lock());
}

TEST(SyncDeathTest, TryLockStillPushesForLaterChecks) {
  SKIP_IF_NO_RANK_CHECK();
  // A try-acquired mutex joins the held stack: blocking acquisitions
  // under it are still rank-checked.
  Mutex high(LockRank::kWalFlush, "test.pushed_high");
  Mutex low(LockRank::kBufferShard, "test.pushed_low");
  TryMutexLock g(&high);
  ASSERT_TRUE(g.owns_lock());
  EXPECT_DEATH({ MutexLock h(&low); },
               "test\\.pushed_low.*test\\.pushed_high");
}

TEST(SyncTest, PageLatchRankIsNestable) {
  SKIP_IF_NO_RANK_CHECK();
  // Crabbing: parent and child page latches are held together at the
  // same rank.
  SharedMutex parent(LockRank::kPageLatch, "test.page_parent");
  SharedMutex child(LockRank::kPageLatch, "test.page_child");
  parent.Lock();
  child.Lock();
  parent.Unlock();  // out-of-LIFO, like latch crabbing releases
  child.Unlock();
}

TEST(SyncTest, ExemptRankSkipsCheckInBothDirections) {
  SKIP_IF_NO_RANK_CHECK();
  // The SF drain gate (rank kDrainGate, exempt) is taken shared under a
  // page latch on the update path, and page latches are taken under the
  // gate on the drain path.  Neither direction may abort.
  SharedMutex gate(LockRank::kDrainGate, "test.gate");
  SharedMutex latch(LockRank::kPageLatch, "test.page");
  {
    latch.Lock();
    gate.LockShared();  // gate under latch
    latch.Unlock();
    gate.UnlockShared();
  }
  {
    gate.Lock();
    latch.Lock();  // latch under gate
    latch.Unlock();
    gate.Unlock();
  }
  // Same shape for the side-file extension mutex: the Figure 2 undo hook
  // takes it under a data-page latch, and ExtendChain latches side-file
  // pages under it.
  Mutex extend(LockRank::kSideFileExtend, "test.extend");
  {
    latch.Lock();
    extend.Lock();  // extend under latch
    latch.Unlock();
  }
  {
    latch.Lock();  // latch under extend
    latch.Unlock();
    extend.Unlock();
  }
}

TEST(SyncTest, OutOfLifoReleaseIsSupported) {
  SKIP_IF_NO_RANK_CHECK();
  // Release order need not mirror acquisition order (e.g. a page latch
  // released while an outer mutex stays held); removal is by identity.
  Mutex a(LockRank::kBuildPlan, "test.lifo_a");
  Mutex b(LockRank::kCatalog, "test.lifo_b");
  Mutex c(LockRank::kObs, "test.lifo_c");
  a.Lock();
  b.Lock();
  c.Lock();
  b.Unlock();
  a.Unlock();
  c.Unlock();
}

TEST(SyncTest, CondVarWaitReleasesAndReacquiresRankSlot) {
  SKIP_IF_NO_RANK_CHECK();
  // While a thread waits, the mutex must not count as held (another
  // thread takes it to set the predicate); after wake-up it must count
  // as held again (an in-order acquisition under it still works).
  Mutex mu(LockRank::kLockTable, "test.cv_mu");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock g(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock g(&mu);
    cv.Wait(mu, [&] { return ready; });
    Mutex inner(LockRank::kObs, "test.cv_inner");
    MutexLock h(&inner);  // mu is on the stack again; kObs > kLockTable
  }
  waker.join();
}

TEST(SyncDeathTest, CondVarWakeupRestoresRankChecking) {
  SKIP_IF_NO_RANK_CHECK();
  // The waker thread may still be live at fork time.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex mu(LockRank::kLockTable, "test.cv_restored");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock g(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock g(&mu);
    cv.Wait(mu, [&] { return ready; });
    Mutex lower(LockRank::kBufferShard, "test.cv_lower");
    EXPECT_DEATH({ MutexLock h(&lower); },
                 "test\\.cv_lower.*test\\.cv_restored");
  }
  waker.join();
}

TEST(SyncTest, RankNamesCoverEveryRank) {
  // LockRankName must never fall through to a numeric placeholder for a
  // rank used in the tree — the abort diagnostic depends on it.
  for (LockRank r : {LockRank::kBuildPlan, LockRank::kDrainGate,
                     LockRank::kHeapExtend, LockRank::kSideFileExtend,
                     LockRank::kTxnActive, LockRank::kPageLatch,
                     LockRank::kBufferShard, LockRank::kCatalog,
                     LockRank::kHeapHints, LockRank::kSideFileCount,
                     LockRank::kLockTable, LockRank::kWalFlush,
                     LockRank::kWalDrain, LockRank::kRunStore,
                     LockRank::kMergeQueue, LockRank::kDisk,
                     LockRank::kFailPoint, LockRank::kObs}) {
    EXPECT_STRNE(LockRankName(r), "?") << static_cast<int>(r);
  }
}

}  // namespace
}  // namespace sync
}  // namespace oib
