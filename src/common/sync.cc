#include "common/sync.h"

#include <cstdio>
#include <cstdlib>

namespace oib {
namespace sync {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kBuildPlan:      return "BuildPlan";
    case LockRank::kDrainGate:      return "DrainGate";
    case LockRank::kHeapExtend:     return "HeapExtend";
    case LockRank::kSideFileExtend: return "SideFileExtend";
    case LockRank::kTxnActive:      return "TxnActive";
    case LockRank::kPageLatch:      return "PageLatch";
    case LockRank::kBufferShard:    return "BufferShard";
    case LockRank::kCatalog:        return "Catalog";
    case LockRank::kHashShard:      return "HashShard";
    case LockRank::kHeapHints:      return "HeapHints";
    case LockRank::kSideFileCount:  return "SideFileCount";
    case LockRank::kLockTable:      return "LockTable";
    case LockRank::kWalFlush:       return "WalFlush";
    case LockRank::kWalDrain:       return "WalDrain";
    case LockRank::kRunStore:       return "RunStore";
    case LockRank::kMergeQueue:     return "MergeQueue";
    case LockRank::kDisk:           return "Disk";
    case LockRank::kFailPoint:      return "FailPoint";
    case LockRank::kStatsSampler:   return "StatsSampler";
    case LockRank::kObs:            return "Obs";
  }
  return "?";
}

bool RankCheckActive() { return OIB_RANK_CHECK != 0; }

#if OIB_RANK_CHECK

namespace internal {
namespace {

struct HeldLock {
  const void* mu;
  LockRank rank;
  const char* name;
};

// Fixed-capacity per-thread stack of held locks.  Crabbing holds a
// handful of page latches at once; 64 leaves a wide margin, and hitting
// the cap is itself a discipline bug worth aborting on.
struct RankStack {
  static constexpr int kMax = 64;
  HeldLock held[kMax];
  int depth = 0;
};

RankStack& TlsStack() {
  thread_local RankStack stack;
  return stack;
}

[[noreturn]] void RankAbort(const char* what, const HeldLock& acquiring,
                            const HeldLock& holding) {
  std::fprintf(
      stderr,
      "oib sync: %s: acquiring \"%s\" (rank %u %s) while holding \"%s\" "
      "(rank %u %s)\n",
      what, acquiring.name, static_cast<unsigned>(acquiring.rank),
      LockRankName(acquiring.rank), holding.name,
      static_cast<unsigned>(holding.rank), LockRankName(holding.rank));
  std::abort();
}

void Push(RankStack& s, const void* mu, LockRank rank, const char* name) {
  if (s.depth >= RankStack::kMax) {
    std::fprintf(stderr,
                 "oib sync: held-lock stack overflow (%d locks) acquiring "
                 "\"%s\"\n",
                 s.depth, name);
    std::abort();
  }
  s.held[s.depth++] = HeldLock{mu, rank, name};
}

void CheckRecursion(const RankStack& s, const void* mu, LockRank rank,
                    const char* name) {
  for (int i = 0; i < s.depth; ++i) {
    if (s.held[i].mu == mu) {
      RankAbort("recursive acquisition", HeldLock{mu, rank, name}, s.held[i]);
    }
  }
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank, const char* name) {
  RankStack& s = TlsStack();
  CheckRecursion(s, mu, rank, name);
  if (!LockRankExempt(rank)) {
    for (int i = 0; i < s.depth; ++i) {
      const HeldLock& h = s.held[i];
      if (LockRankExempt(h.rank)) continue;
      bool ok = h.rank < rank ||
                (h.rank == rank && LockRankNestable(rank));
      if (!ok) {
        RankAbort("lock rank violation", HeldLock{mu, rank, name}, h);
      }
    }
  }
  Push(s, mu, rank, name);
}

void OnTryAcquire(const void* mu, LockRank rank, const char* name) {
  // Runs before the attempt: same-thread reacquisition is UB on the
  // underlying mutex whether or not try_lock would "fail", so it must
  // abort up front.  Order is not checked — a failed try-acquire cannot
  // deadlock.
  RankStack& s = TlsStack();
  CheckRecursion(s, mu, rank, name);
}

void OnTryAcquired(const void* mu, LockRank rank, const char* name) {
  // The successful acquisition joins the stack so later blocking
  // acquisitions under it are still rank-checked.
  Push(TlsStack(), mu, rank, name);
}

void OnRelease(const void* mu, const char* name) {
  RankStack& s = TlsStack();
  // Search from the top: releases are usually LIFO, but not always (a
  // page latch is released while the drain gate, acquired after it, is
  // still held), so remove by identity rather than popping blindly.
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.held[i].mu == mu) {
      for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
  }
  std::fprintf(stderr, "oib sync: releasing \"%s\" not held by this thread\n",
               name);
  std::abort();
}

}  // namespace internal

#endif  // OIB_RANK_CHECK

}  // namespace sync
}  // namespace oib
