// LockManager: transaction locks (distinct from page latches).
//
// Modes IS/IX/S/SIX/X with the standard compatibility matrix.  Supports
// blocking requests with a timeout (timeout-based deadlock resolution:
// the waiter gets Status::Aborted and its transaction rolls back),
// conditional requests (return Busy instead of waiting — used by the
// pseudo-delete garbage collector, paper section 2.2.4), and instant
// duration (grant then release immediately — "conditional instant share
// lock").
//
// Lock names follow data-only locking (ARIES/IM, paper section 6.2): a key
// lock shares its name with the lock on the record the key points to, so a
// freshly built index can be exposed to readers without quiescing updates.

#ifndef OIB_TXN_LOCK_MANAGER_H_
#define OIB_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace oib {

enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kSIX = 3, kX = 4 };

// True if a holder in `held` allows a new request in `requested`.
bool LockCompatible(LockMode held, LockMode requested);
// Least mode at least as strong as both (conversion lattice supremum).
LockMode LockSupremum(LockMode a, LockMode b);
const char* LockModeName(LockMode m);

using LockId = uint64_t;

// Lock-name constructors (data-only locking).
LockId TableLockId(TableId table);
LockId RecordLockId(TableId table, const Rid& rid);

struct LockOptions {
  bool conditional = false;  // don't wait; Busy if not grantable now
  bool instant = false;      // release immediately upon grant
  uint64_t timeout_ms = 2000;
};

class LockManager {
 public:
  explicit LockManager(uint64_t default_timeout_ms = 2000)
      : default_timeout_ms_(default_timeout_ms) {}
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires (or converts to) `mode` on `lock` for `txn`.
  //  OK       — granted (and already released if options.instant)
  //  Busy     — conditional request not grantable
  //  Aborted  — wait timed out (presumed deadlock); caller must roll back
  Status Lock(TxnId txn, LockId lock, LockMode mode,
              const LockOptions& options = {});

  // Releases one lock (rarely needed; commit/abort use ReleaseAll).
  void Unlock(TxnId txn, LockId lock);

  // Releases every lock held by `txn`.
  void ReleaseAll(TxnId txn);

  // True if `txn` holds `lock` in a mode at least as strong as `mode`.
  bool Holds(TxnId txn, LockId lock, LockMode mode) const;

  size_t held_count(TxnId txn) const;

  uint64_t timeout_count() const { return timeouts_.value(); }

  // Registers lock.{waits,timeouts,wait_ns} with `registry` (owner = this;
  // the destructor detaches them).
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct LockState {
    std::map<TxnId, LockMode> holders;
    // FIFO wait queue: (txn, requested mode).
    std::deque<std::pair<TxnId, LockMode>> waiters;
  };

  // True if `txn` may be granted `mode` right now (ignores queue order;
  // caller checks queue position).
  static bool Grantable(const LockState& st, TxnId txn, LockMode mode);

  uint64_t default_timeout_ms_;
  mutable sync::Mutex mu_{sync::LockRank::kLockTable, "locktable.mu"};
  sync::CondVar cv_;
  std::unordered_map<LockId, LockState> locks_ OIB_GUARDED_BY(mu_);
  std::unordered_map<TxnId, std::unordered_set<LockId>> held_
      OIB_GUARDED_BY(mu_);
  obs::Counter waits_;
  obs::Counter timeouts_;  // timeout-based deadlock aborts
  obs::Histogram wait_ns_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace oib

#endif  // OIB_TXN_LOCK_MANAGER_H_
