#include "obs/lock_profile.h"

#include <chrono>

namespace oib {

#if OIB_LOCK_PROFILE

namespace {

// Static per-rank slots.  obs::Histogram cells are relaxed atomics, so
// recording from any thread under any lock set is safe and lock-free;
// static storage means the hooks work before main() and cost nothing to
// reach (no registry lookup on the contended path).
struct RankSlot {
  obs::Counter waits;
  obs::Histogram wait_ns;
  obs::Histogram hold_ns;
};

RankSlot g_slots[sync::kNumLockRanks];

}  // namespace

namespace sync {
namespace prof {

std::atomic<bool> g_lock_profile_enabled{false};

void SetEnabled(bool on) {
  g_lock_profile_enabled.store(on, std::memory_order_relaxed);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordWait(LockRank rank, uint64_t wait_ns) {
  RankSlot& slot = g_slots[LockRankIndex(rank)];
  slot.waits.Inc();
  slot.wait_ns.Record(wait_ns);
}

void RecordHold(LockRank rank, uint64_t hold_ns) {
  g_slots[sync::LockRankIndex(rank)].hold_ns.Record(hold_ns);
}

}  // namespace prof
}  // namespace sync

#endif  // OIB_LOCK_PROFILE

namespace obs {

bool LockProfileEnabled() { return sync::prof::Enabled(); }

std::vector<LockRankContention> CollectLockProfile() {
  std::vector<LockRankContention> out;
#if OIB_LOCK_PROFILE
  static constexpr sync::LockRank kAllRanks[] = {
      sync::LockRank::kBuildPlan,      sync::LockRank::kDrainGate,
      sync::LockRank::kHeapExtend,     sync::LockRank::kSideFileExtend,
      sync::LockRank::kTxnActive,      sync::LockRank::kPageLatch,
      sync::LockRank::kBufferShard,    sync::LockRank::kCatalog,
      sync::LockRank::kHashShard,      sync::LockRank::kHeapHints,
      sync::LockRank::kSideFileCount,  sync::LockRank::kLockTable,
      sync::LockRank::kWalFlush,       sync::LockRank::kWalDrain,
      sync::LockRank::kRunStore,       sync::LockRank::kMergeQueue,
      sync::LockRank::kDisk,           sync::LockRank::kFailPoint,
      sync::LockRank::kStatsSampler,   sync::LockRank::kObs,
  };
  for (sync::LockRank rank : kAllRanks) {
    const RankSlot& slot = g_slots[sync::LockRankIndex(rank)];
    uint64_t waits = slot.waits.value();
    if (waits == 0) continue;
    LockRankContention c;
    c.rank = rank;
    c.name = sync::LockRankName(rank);
    c.waits = waits;
    c.wait_ns = slot.wait_ns.Snapshot();
    c.hold_ns = slot.hold_ns.Snapshot();
    out.push_back(std::move(c));
  }
#endif
  return out;
}

void ResetLockProfile() {
#if OIB_LOCK_PROFILE
  for (auto& slot : g_slots) {
    slot.waits.Reset();
    slot.wait_ns.Reset();
    slot.hold_ns.Reset();
  }
#endif
}

}  // namespace obs
}  // namespace oib
