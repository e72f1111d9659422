// Unified observability metrics: process-wide registry of named counters,
// gauges, and log-bucketed latency histograms.
//
// Design rules (the hot path is an index build racing a transaction
// workload, so instrumentation must be invisible):
//  * every update is a relaxed atomic op on a preallocated cell — no
//    locks, no allocation, no branches beyond the bucket computation;
//  * the registry mutex guards only registration/lookup (cold path);
//    components cache the returned pointers at construction;
//  * reading (TakeSnapshot) is racy-by-design: relaxed loads give a
//    consistent-enough view for reporting without stalling writers.
//
// Two ownership styles coexist:
//  * registry-owned metrics: GetCounter/GetGauge/GetHistogram create (or
//    return) a metric owned by the registry — used by ad-hoc sites like
//    the workload driver and benches;
//  * component-owned metrics: a subsystem that keeps its own atomics
//    (BufferPool, LockManager, LogManager) registers them by pointer with
//    an `owner` token and detaches via DetachOwner() before destruction.
//
// Naming scheme (see DESIGN.md "Observability"): `subsystem.metric[_unit]`,
// e.g. `bufferpool.hits`, `lock.wait_ns`, `workload.update_ns`.

#ifndef OIB_OBS_METRICS_H_
#define OIB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace oib {
namespace obs {

// Assumed size of a destructive-interference cache line.  Hot metric cells
// are padded to this so that adjacent instances (e.g. the per-shard
// hit/miss/eviction counters inside a buffer-pool shard array) never share
// a line: with the packed layout, relaxed fetch-adds from different shards
// would still ping-pong the same cache line between cores.
inline constexpr size_t kCacheLineSize = 64;

class alignas(kCacheLineSize) Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
  char pad_[kCacheLineSize - sizeof(std::atomic<uint64_t>)];
};
static_assert(sizeof(Counter) == kCacheLineSize);

class alignas(kCacheLineSize) Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
  char pad_[kCacheLineSize - sizeof(std::atomic<int64_t>)];
};
static_assert(sizeof(Gauge) == kCacheLineSize);

// Fixed log-scaled bucket layout shared by Histogram and its snapshots.
// Values 0..3 get exact buckets; above that each power-of-two octave is
// split into 4 sub-buckets (2 mantissa bits), giving <= 25% relative
// error on quantiles over the full uint64 range with 252 buckets.
struct HistogramBuckets {
  static constexpr uint32_t kSubBits = 2;
  static constexpr uint32_t kSub = 1u << kSubBits;           // 4
  static constexpr uint32_t kNumBuckets = (64 - kSubBits) * kSub + kSub;

  static uint32_t Index(uint64_t v);
  static uint64_t LowerBound(uint32_t bucket);
  // Inclusive upper bound of the bucket's value range.
  static uint64_t UpperBound(uint32_t bucket);
};

// Point-in-time copy of a histogram, with quantile extraction.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // kNumBuckets entries

  // p in [0,100].  Returns the inclusive upper bound of the bucket that
  // contains the p-th percentile rank, clamped to the observed max
  // (so Percentile(100) == max).  0 when empty.
  uint64_t Percentile(double p) const;
  double mean() const { return count == 0 ? 0.0 : double(sum) / count; }
};

class alignas(kCacheLineSize) Histogram {
 public:
  void Record(uint64_t v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  // count/sum/max are touched on every Record; keep them on their own
  // line so a neighbouring object's hot field can't false-share with
  // them, and start the bucket array on a fresh line.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  char pad_[kCacheLineSize - 3 * sizeof(std::atomic<uint64_t>)];
  std::atomic<uint64_t> buckets_[HistogramBuckets::kNumBuckets]{};
};

struct MetricsSnapshot {
  // Counters and value-callbacks merged: both are monotonic uint64 reads.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  // The process-wide registry every subsystem attaches to.
  static MetricsRegistry& Default();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registry-owned create-or-get.  Returned pointers stay valid for the
  // registry's lifetime.  Returns nullptr if `name` is already registered
  // as a different kind.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Component-owned registration.  `owner` groups entries so a component
  // can detach everything it registered before it is destroyed.
  // Re-registering a name replaces the previous entry (an engine restart
  // re-attaches the same metric names).
  void RegisterCounter(const std::string& name, Counter* c, const void* owner);
  void RegisterHistogram(const std::string& name, Histogram* h,
                         const void* owner);
  // Read-only value callback (for subsystems with pre-existing stats
  // fields); shows up among the counters in snapshots.
  void RegisterValueFn(const std::string& name, std::function<uint64_t()> fn,
                       const void* owner);

  void DetachOwner(const void* owner);

  // Zeroes every counter/gauge/histogram (owned and registered); value
  // callbacks are left alone.  Best-effort under concurrent writers —
  // benches call it between measurement windows.
  void ResetAll();

  MetricsSnapshot TakeSnapshot() const;

 private:
  struct Entry {
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
    std::function<uint64_t()> fn;
    // Set when the registry owns the metric.
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<Histogram> owned_histogram;
    const void* owner = nullptr;
  };

  mutable sync::Mutex mu_{sync::LockRank::kObs, "metrics.mu"};
  std::map<std::string, Entry> entries_ OIB_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace oib

#endif  // OIB_OBS_METRICS_H_
