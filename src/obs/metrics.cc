#include "obs/metrics.h"

#include <bit>

namespace oib {
namespace obs {

uint32_t HistogramBuckets::Index(uint64_t v) {
  if (v < kSub) return static_cast<uint32_t>(v);
  uint32_t log = 63 - static_cast<uint32_t>(std::countl_zero(v));
  uint32_t sub = static_cast<uint32_t>(v >> (log - kSubBits)) & (kSub - 1);
  return (log - kSubBits) * kSub + sub + kSub;
}

uint64_t HistogramBuckets::LowerBound(uint32_t bucket) {
  if (bucket < kSub) return bucket;
  uint32_t t = bucket - kSub;
  uint32_t log = t / kSub + kSubBits;
  uint64_t sub = t % kSub;
  return (uint64_t{1} << log) + (sub << (log - kSubBits));
}

uint64_t HistogramBuckets::UpperBound(uint32_t bucket) {
  if (bucket < kSub) return bucket;
  uint32_t t = bucket - kSub;
  uint32_t log = t / kSub + kSubBits;
  uint64_t width = uint64_t{1} << (log - kSubBits);
  uint64_t lower = LowerBound(bucket);
  // The topmost bucket saturates instead of wrapping.
  if (lower + width - 1 < lower) return ~uint64_t{0};
  return lower + width - 1;
}

void Histogram::Record(uint64_t v) {
  buckets_[HistogramBuckets::Index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.buckets.resize(HistogramBuckets::kNumBuckets);
  for (uint32_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (uint32_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  // Rank over the bucket counts, not `count`: the two can disagree briefly
  // under concurrent recording.
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * total);
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t cum = 0;
  for (uint32_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      // Interpolate linearly within the bucket: rank k of the c samples
      // that landed here maps to lo + (hi-lo)*k/c, assuming the samples
      // are spread uniformly across [lo, hi].  Returning the raw upper
      // bound would bias every quantile high by up to the bucket width
      // (25% relative at this layout's resolution).
      uint64_t lo = HistogramBuckets::LowerBound(i);
      uint64_t hi = HistogramBuckets::UpperBound(i);
      if (max != 0 && hi > max) hi = max;  // top bucket: max is exact
      if (hi <= lo) return hi;
      uint64_t c = buckets[i];
      uint64_t k = rank - (cum - c);  // 1-based rank within this bucket
      return lo + static_cast<uint64_t>(static_cast<double>(hi - lo) *
                                        static_cast<double>(k) /
                                        static_cast<double>(c));
    }
  }
  return max;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  sync::MutexLock g(&mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr && e.gauge == nullptr && e.histogram == nullptr &&
      !e.fn) {
    e.owned_counter = std::make_unique<Counter>();
    e.counter = e.owned_counter.get();
  }
  return e.counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  sync::MutexLock g(&mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr && e.gauge == nullptr && e.histogram == nullptr &&
      !e.fn) {
    e.owned_gauge = std::make_unique<Gauge>();
    e.gauge = e.owned_gauge.get();
  }
  return e.gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  sync::MutexLock g(&mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr && e.gauge == nullptr && e.histogram == nullptr &&
      !e.fn) {
    e.owned_histogram = std::make_unique<Histogram>();
    e.histogram = e.owned_histogram.get();
  }
  return e.histogram;
}

void MetricsRegistry::RegisterCounter(const std::string& name, Counter* c,
                                      const void* owner) {
  sync::MutexLock g(&mu_);
  Entry e;
  e.counter = c;
  e.owner = owner;
  entries_[name] = std::move(e);
}

void MetricsRegistry::RegisterHistogram(const std::string& name, Histogram* h,
                                        const void* owner) {
  sync::MutexLock g(&mu_);
  Entry e;
  e.histogram = h;
  e.owner = owner;
  entries_[name] = std::move(e);
}

void MetricsRegistry::RegisterValueFn(const std::string& name,
                                      std::function<uint64_t()> fn,
                                      const void* owner) {
  sync::MutexLock g(&mu_);
  Entry e;
  e.fn = std::move(fn);
  e.owner = owner;
  entries_[name] = std::move(e);
}

void MetricsRegistry::DetachOwner(const void* owner) {
  if (owner == nullptr) return;
  sync::MutexLock g(&mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner == owner) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void MetricsRegistry::ResetAll() {
  sync::MutexLock g(&mu_);
  for (auto& [name, e] : entries_) {
    (void)name;
    if (e.counter != nullptr) e.counter->Reset();
    if (e.gauge != nullptr) e.gauge->Reset();
    if (e.histogram != nullptr) e.histogram->Reset();
  }
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  // Copy the entry pointers under the lock, then read the (atomic) values
  // outside it so a slow histogram copy never blocks registration.
  struct Ref {
    std::string name;
    Counter* counter;
    Gauge* gauge;
    Histogram* histogram;
    std::function<uint64_t()> fn;
  };
  std::vector<Ref> refs;
  {
    sync::MutexLock g(&mu_);
    refs.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
      refs.push_back({name, e.counter, e.gauge, e.histogram, e.fn});
    }
  }
  MetricsSnapshot snap;
  for (const Ref& r : refs) {
    if (r.counter != nullptr) {
      snap.counters[r.name] = r.counter->value();
    } else if (r.fn) {
      snap.counters[r.name] = r.fn();
    } else if (r.gauge != nullptr) {
      snap.gauges[r.name] = r.gauge->value();
    } else if (r.histogram != nullptr) {
      snap.histograms[r.name] = r.histogram->Snapshot();
    }
  }
  return snap;
}

}  // namespace obs
}  // namespace oib
